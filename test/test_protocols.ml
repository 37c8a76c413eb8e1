(* Tests for the protocol model library beyond the paper's stop-and-wait:
   alternating-bit, handshake, shared channel. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Reach = Tpan_petri.Reachability
module Inv = Tpan_petri.Invariants
module Var = Tpan_symbolic.Var
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module M = Tpan_perf.Measures
module Sim = Tpan_sim.Simulator
module Abp = Tpan_protocols.Abp
module Hs = Tpan_protocols.Handshake
module Sc = Tpan_protocols.Shared_channel
module SW = Tpan_protocols.Stopwait

(* --- structural sanity via the petri substrate --- *)

(* Safeness of these protocols is a *timed* property: untimed, the timeout
   can fire while a packet is still in the medium, so the medium places are
   structurally unbounded (the paper notes constraints (3)/(4) exist to
   protect "the safeness assumption"). We assert both facts: the untimed
   net is unbounded, and every timed-reachable marking is safe. *)

let timed_markings_safe tpn =
  let g = CG.build tpn in
  Array.for_all
    (fun st -> Array.for_all (fun k -> k <= 1) st.Sem.marking)
    g.Sem.states

let test_stopwait_structure () =
  let net = SW.net () in
  let tree = Tpan_petri.Coverability.build net in
  Alcotest.(check bool) "untimed net is unbounded" false
    (Tpan_petri.Coverability.is_bounded tree);
  Alcotest.(check bool) "medium place p2 unbounded" true
    (List.mem (Net.place_of_name net "p2") (Tpan_petri.Coverability.unbounded_places tree));
  Alcotest.(check bool) "timed reachable markings are safe" true
    (timed_markings_safe (SW.concrete SW.paper_params));
  (* receiver-ready place is conserved *)
  let v = Array.make (Net.num_places net) 0 in
  v.(Net.place_of_name net "p8") <- 1;
  Alcotest.(check bool) "p8 invariant" true (Inv.is_p_invariant net v)

let test_abp_structure () =
  let net = Abp.net () in
  Alcotest.(check int) "places" 14 (Net.num_places net);
  Alcotest.(check int) "transitions" 18 (Net.num_transitions net);
  Alcotest.(check bool) "timed reachable markings are safe" true
    (timed_markings_safe (Abp.concrete Abp.default_params));
  (* expect0 + expect1 = 1 is conserved *)
  let v = Array.make (Net.num_places net) 0 in
  v.(Net.place_of_name net "expect0") <- 1;
  v.(Net.place_of_name net "expect1") <- 1;
  Alcotest.(check bool) "expectation invariant" true (Inv.is_p_invariant net v)

let test_handshake_structure () =
  Alcotest.(check bool) "timed reachable markings are safe" true
    (timed_markings_safe (Hs.concrete Hs.default_params))

(* --- ABP analysis --- *)

let test_abp_concrete_analysis () =
  let tpn = Abp.concrete Abp.default_params in
  let g = CG.build tpn in
  Alcotest.(check int) "52 states" 52 (CG.Graph.num_states g);
  Alcotest.(check int) "six branching nodes" 6 (List.length (Sem.branching_states g));
  let res = M.Concrete.analyze g in
  let thr =
    List.fold_left (fun acc t -> Q.add acc (M.Concrete.throughput res g t)) Q.zero Abp.deliveries
  in
  (* ABP at the paper's timings is slightly faster than stop-and-wait:
     it has no separate prepare step and duplicates are absorbed at the
     receiver. Sanity-band check. *)
  let msgs_per_s = Q.to_float thr *. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.4f in (2.5, 3.5)" msgs_per_s)
    true
    (msgs_per_s > 2.5 && msgs_per_s < 3.5);
  (* bit symmetry: the two phases deliver at the same rate *)
  match Abp.deliveries with
  | [ d0; d1 ] ->
    Alcotest.(check bool) "phase symmetry" true
      (Q.equal (M.Concrete.throughput res g d0) (M.Concrete.throughput res g d1))
  | _ -> Alcotest.fail "expected two delivery transitions"

let test_abp_lossless_matches_cycle () =
  (* without losses ABP is one deterministic cycle, a single renewal node
     of the decision graph; verify against the simulator instead of
     hand-arithmetic: exact delivery rate = simulated rate *)
  let p = { Abp.default_params with Abp.packet_loss = Q.zero; ack_loss = Q.zero } in
  let tpn = Abp.concrete p in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let nodes = res.Tpan_perf.Rates.dg.Tpan_perf.Decision_graph.nodes in
  Alcotest.(check int) "one renewal node" 1 (List.length nodes);
  let thr =
    List.fold_left (fun acc t -> Q.add acc (M.Concrete.throughput res g t)) Q.zero Abp.deliveries
  in
  let net = Tpn.net tpn in
  let stats = Sim.run ~seed:3 ~horizon:(Q.of_int 1_000_000) tpn in
  let sim_thr =
    List.fold_left
      (fun acc t -> acc +. Sim.throughput stats (Net.trans_of_name net t))
      0. Abp.deliveries
  in
  Alcotest.(check (float 1e-6)) "sim matches deterministic cycle" (Q.to_float thr) sim_thr

let test_abp_symbolic () =
  let tpn = Abp.symbolic () in
  let g = SG.build tpn in
  Alcotest.(check int) "same state count as concrete" 52 (SG.Graph.num_states g);
  let res = M.Symbolic.analyze g in
  let thr =
    List.fold_left (fun acc t -> Rf.add acc (M.Symbolic.throughput res g t)) Rf.zero Abp.deliveries
  in
  (* evaluate at the default point and compare with concrete analysis *)
  let p = Abp.default_params in
  let v =
    M.Symbolic.eval_at thr
      [
        ("E(to)", p.Abp.timeout);
        ("F(send)", p.Abp.send_time);
        ("F(pkt)", p.Abp.transit_time);
        ("F(ack)", p.Abp.transit_time);
        ("F(proc)", p.Abp.process_time);
        ("f(lp)", p.Abp.packet_loss);
        ("f(dp)", Q.sub Q.one p.Abp.packet_loss);
        ("f(la)", p.Abp.ack_loss);
        ("f(da)", Q.sub Q.one p.Abp.ack_loss);
      ]
  in
  let cg = CG.build (Abp.concrete p) in
  let cres = M.Concrete.analyze cg in
  let cthr =
    List.fold_left (fun acc t -> Q.add acc (M.Concrete.throughput cres cg t)) Q.zero Abp.deliveries
  in
  Alcotest.(check bool) "symbolic = concrete at default point" true (Q.equal v cthr)

let test_abp_sim_agreement () =
  let tpn = Abp.concrete Abp.default_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let exact =
    Q.to_float
      (List.fold_left (fun acc t -> Q.add acc (M.Concrete.throughput res g t)) Q.zero Abp.deliveries)
  in
  let net = Tpn.net tpn in
  let stats = Sim.run ~seed:17 ~horizon:(Q.of_int 2_000_000) tpn in
  let sim =
    List.fold_left (fun acc t -> acc +. Sim.throughput stats (Net.trans_of_name net t)) 0. Abp.deliveries
  in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.5f vs exact %.5f" sim exact)
    true
    (Float.abs (sim -. exact) /. exact < 0.03)

(* --- handshake --- *)

let test_handshake_analysis () =
  let tpn = Hs.concrete Hs.default_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let conn = M.Concrete.throughput res g Hs.t_establish in
  (* lossless bound: one connection per send+med+acc+med+establish+session
     = 2+80+10+80+2+1500 = 1674 ms; losses make it slightly slower *)
  let per_conn = 1. /. (Q.to_float conn) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f ms per connection (>= 1674)" per_conn)
    true (per_conn >= 1674.);
  Alcotest.(check bool) "within 10%% of lossless" true (per_conn < 1674. *. 1.10)

let test_handshake_symbolic_point () =
  let stpn = Hs.symbolic () in
  let sg = SG.build stpn in
  let sres = M.Symbolic.analyze sg in
  let thr = M.Symbolic.throughput sres sg Hs.t_establish in
  let p = Hs.default_params in
  let v =
    M.Symbolic.eval_at thr
      [
        ("E(rt)", p.Hs.retry_timeout);
        ("F(snd)", p.Hs.send_time);
        ("F(med)", p.Hs.transit_time);
        ("F(acc)", p.Hs.accept_time);
        ("F(ses)", p.Hs.session_time);
        ("f(lq)", p.Hs.request_loss);
        ("f(dq)", Q.sub Q.one p.Hs.request_loss);
        ("f(lr)", p.Hs.reply_loss);
        ("f(dr)", Q.sub Q.one p.Hs.reply_loss);
      ]
  in
  let cg = CG.build (Hs.concrete p) in
  let cres = M.Concrete.analyze cg in
  Alcotest.(check bool) "symbolic = concrete" true
    (Q.equal v (M.Concrete.throughput cres cg Hs.t_establish))

(* --- shared channel --- *)

let test_shared_channel_concrete () =
  let tpn = Sc.concrete Sc.default_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let net = Tpn.net tpn in
  (* a station is transmitting while its release transition is firing (the
     tokens sit inside the transition, not on a place) *)
  let rel_a = Net.trans_of_name net "release_a" in
  let rel_b = Net.trans_of_name net "release_b" in
  let busy_a =
    M.Concrete.utilization res ~graph:g (fun st -> Q.sign st.Sem.rft.(rel_a) > 0)
  in
  let busy_b =
    M.Concrete.utilization res ~graph:g (fun st -> Q.sign st.Sem.rft.(rel_b) > 0)
  in
  Alcotest.(check bool) "a busy share positive" true (Q.sign busy_a > 0);
  Alcotest.(check bool) "b busy share positive" true (Q.sign busy_b > 0);
  Alcotest.(check bool) "shares below 1" true (Q.compare (Q.add busy_a busy_b) Q.one <= 0)

let test_weighted_scheduler_closed_form () =
  (* symbolic time share of station A = f(a)F(txa) / (f(a)F(txa)+f(b)F(txb)) *)
  let tpn = Sc.symbolic () in
  let g = SG.build tpn in
  let res = M.Symbolic.analyze g in
  let share_a =
    M.edge_time_share res (fun e ->
        List.exists
          (fun t -> Net.trans_name (Tpn.net tpn) t = Sc.t_grab_a)
          e.Tpan_perf.Decision_graph.fired)
  in
  let fa = Poly.var (Var.frequency "a") and fb = Poly.var (Var.frequency "b") in
  let txa = Poly.var (Var.firing "txa") and txb = Poly.var (Var.firing "txb") in
  let expected =
    Rf.make (Poly.mul fa txa) (Poly.add (Poly.mul fa txa) (Poly.mul fb txb))
  in
  Alcotest.(check bool) "closed form matches" true (Rf.equal share_a expected)

let test_parallel_channels_exact () =
  (* two independent channels: aggregate completion rate must be EXACTLY
     double the single-channel rate, despite the interleaved state space
     (450 states vs 18). Uses coarse integer delays to keep the relative
     phase lattice small. *)
  let small =
    {
      SW.timeout = Q.of_int 7; send_time = Q.one; transit_time = Q.of_int 2;
      process_time = Q.one; packet_loss = Q.of_ints 1 10; ack_loss = Q.of_ints 1 10;
    }
  in
  let tpn = SW.parallel ~channels:2 small in
  let g = CG.build tpn in
  Alcotest.(check int) "interleaved state count" 450 (CG.Graph.num_states g);
  let res = M.Concrete.analyze g in
  let thr = Q.add (M.Concrete.throughput res g "t7_c0") (M.Concrete.throughput res g "t7_c1") in
  let sg = CG.build (SW.concrete small) in
  let sres = M.Concrete.analyze sg in
  let single = M.Concrete.throughput sres sg "t7" in
  Alcotest.(check bool) "aggregate = 2 x single (exact)" true
    (Q.equal thr (Q.mul (Q.of_int 2) single));
  (* and the channels are individually fair *)
  Alcotest.(check bool) "per-channel symmetry" true
    (Q.equal (M.Concrete.throughput res g "t7_c0") (M.Concrete.throughput res g "t7_c1"))

let suite =
  ( "protocols",
    [
      Alcotest.test_case "stopwait structure" `Quick test_stopwait_structure;
      Alcotest.test_case "abp structure" `Quick test_abp_structure;
      Alcotest.test_case "handshake structure" `Quick test_handshake_structure;
      Alcotest.test_case "abp concrete analysis" `Quick test_abp_concrete_analysis;
      Alcotest.test_case "abp lossless cycle" `Slow test_abp_lossless_matches_cycle;
      Alcotest.test_case "abp symbolic" `Quick test_abp_symbolic;
      Alcotest.test_case "abp sim agreement" `Slow test_abp_sim_agreement;
      Alcotest.test_case "handshake analysis" `Quick test_handshake_analysis;
      Alcotest.test_case "handshake symbolic point" `Quick test_handshake_symbolic_point;
      Alcotest.test_case "shared channel concrete" `Quick test_shared_channel_concrete;
      Alcotest.test_case "weighted scheduler closed form" `Quick test_weighted_scheduler_closed_form;
      Alcotest.test_case "parallel channels: exact 2x throughput" `Quick test_parallel_channels_exact;
    ] )
