(* Validation of decision graphs, rate equations, and measures against the
   paper's Figure 5 (numeric), Figure 8 (symbolic) and the final throughput
   expression of section 4. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures
module Markov = Tpan_perf.Markov
module SW = Tpan_protocols.Stopwait

let qd = Q.of_decimal_string
let qeq = Alcotest.(check bool)

let cgraph = lazy (CG.build (SW.concrete SW.paper_params))
let cres = lazy (M.Concrete.analyze (Lazy.force cgraph))
let sgraph = lazy (SG.build (SW.symbolic ()))
let sres = lazy (M.Symbolic.analyze (Lazy.force sgraph))

let paper_time_bindings =
  [
    ("E(t3)", Q.of_int 1000);
    ("F(t1)", Q.one); ("F(t2)", Q.one); ("F(t3)", Q.one);
    ("F(t4)", qd "106.7"); ("F(t5)", qd "106.7");
    ("F(t6)", qd "13.5"); ("F(t7)", qd "13.5");
    ("F(t8)", qd "106.7"); ("F(t9)", qd "106.7");
  ]

let paper_freq_bindings =
  [
    ("f(t4)", Q.of_ints 1 20); ("f(t5)", Q.of_ints 19 20);
    ("f(t8)", Q.of_ints 19 20); ("f(t9)", Q.of_ints 1 20);
  ]

(* --- Figure 5: concrete decision graph --- *)

let test_figure5_edges () =
  let res = Lazy.force cres in
  let dg = res.Rates.dg in
  Alcotest.(check int) "two decision nodes" 2 (List.length dg.DG.nodes);
  Alcotest.(check int) "four edges" 4 (List.length dg.DG.edges);
  (* the paper's (probability, delay) pairs *)
  let expect = [ (qd "0.05", qd "1002"); (qd "0.95", qd "120.2"); (qd "0.95", qd "122.2"); (qd "0.05", qd "881.8") ] in
  List.iter
    (fun (p, d) ->
      qeq
        (Format.asprintf "edge p=%a d=%a present" Q.pp p Q.pp d)
        true
        (List.exists
           (fun (e : _ DG.dedge) -> Q.equal e.DG.prob p && Q.equal e.DG.delay d)
           dg.DG.edges))
    expect;
  Alcotest.(check bool) "not absorbing" false (DG.is_absorbing dg)

let test_figure5_rates () =
  (* with v(packet decision) = 1: r1 = 0.05, r3 = 0.95,
     r2 = 0.95*0.95 = 0.9025, r4 = 0.95*0.05 = 0.0475 *)
  let res = Lazy.force cres in
  let rates = List.sort Q.compare (List.map (fun (re : _ Rates.rated_edge) -> re.Rates.rate) res.Rates.edge_rate) in
  let expected = List.sort Q.compare [ qd "0.05"; qd "0.95"; qd "0.9025"; qd "0.0475" ] in
  List.iter2 (fun a b -> qeq "rate" true (Q.equal a b)) expected rates;
  (* Σ w = 0.05·1002 + 0.95·120.2 + 0.9025·122.2 + 0.0475·881.8 = 316.461 *)
  qeq "total weight" true (Q.equal (qd "316.461") res.Rates.total_weight)

let test_throughput_concrete () =
  let res = Lazy.force cres in
  let g = Lazy.force cgraph in
  let thr = M.Concrete.throughput res g "t7" in
  (* mean time per message = Σw / r2 = 316.461 / 0.9025 = 350.649... *)
  let mean = Q.inv thr in
  qeq "mean time per message" true (Q.equal (Q.div (qd "316.461") (qd "0.9025")) mean);
  Alcotest.(check (float 1e-9)) "throughput msg/ms" 0.0028518518 (Q.to_float thr);
  (* success = completion of the ack-delivery leg: same as t7 firing *)
  let t7 = Net.trans_of_name (Tpn.net g.Sem.tpn) "t7" in
  let thr_fired = M.throughput_of_transition res ~by:`Fired t7 in
  qeq "fired = completed for t7" true (Q.equal thr thr_fired)

let test_edge_measures () =
  let res = Lazy.force cres in
  (* time share of the timeout-recovery edges (d = 1002 and 881.8) *)
  let share =
    M.edge_time_share res (fun e -> Q.equal e.DG.delay (qd "1002") || Q.equal e.DG.delay (qd "881.8"))
  in
  (* w1 + w4 = 50.1 + 41.8855 = 91.9855; / 316.461 *)
  qeq "recovery share" true (Q.equal (Q.div (qd "91.9855") (qd "316.461")) share);
  (* mean time between visits of the packet-decision node = Σw / 1 *)
  let dg = res.Rates.dg in
  let n0 = List.hd dg.DG.nodes in
  qeq "cycle time at n0" true (Q.equal res.Rates.total_weight (M.mean_time_between_visits res n0));
  qeq "mean_cycle_time" true (Q.equal res.Rates.total_weight (M.mean_cycle_time res))

let test_utilization () =
  let res = Lazy.force cres in
  let g = Lazy.force cgraph in
  let net = Tpn.net g.Sem.tpn in
  let p4 = Net.place_of_name net "p4" in
  let busy = M.Concrete.utilization res ~graph:g (fun st -> Tpan_petri.Marking.tokens st.Sem.marking p4 > 0) in
  (* p4 (awaiting ack) is marked during every non-send interval; sanity:
     0 < u < 1 and u is large (most of the cycle waits for acks/timeouts) *)
  qeq "utilization positive" true (Q.sign busy > 0);
  qeq "utilization < 1" true (Q.compare busy Q.one < 0);
  qeq "mostly waiting" true (Q.compare busy (qd "0.9") > 0);
  (* complement: time with a message being prepared/sent *)
  let all = M.Concrete.utilization res ~graph:g (fun _ -> true) in
  qeq "total time share is 1" true (Q.equal Q.one all)

(* --- Figure 8: symbolic rates and throughput --- *)

let test_figure8_symbolic_rates () =
  let res = Lazy.force sres in
  let fr n = Poly.var (Var.frequency n) in
  let sum = Poly.add in
  (* with v(3) = 1: r(3->3 loss) = f4/(f4+f5), r(3->11) = f5/(f4+f5) *)
  let expect_r1 = Rf.make (fr "t4") (sum (fr "t4") (fr "t5")) in
  let expect_r3 = Rf.make (fr "t5") (sum (fr "t4") (fr "t5")) in
  (* r(11->3 success) = f5·f8 / ((f4+f5)(f8+f9)) *)
  let expect_r2 =
    Rf.make (Poly.mul (fr "t5") (fr "t8")) (Poly.mul (sum (fr "t4") (fr "t5")) (sum (fr "t8") (fr "t9")))
  in
  let rates = List.map (fun (re : _ Rates.rated_edge) -> re.Rates.rate) res.Rates.edge_rate in
  List.iter
    (fun want ->
      qeq "symbolic rate present" true (List.exists (Rf.equal want) rates))
    [ expect_r1; expect_r3; expect_r2 ]

let test_symbolic_throughput_specializes_to_paper () =
  (* The paper's 5%-loss specialization:
     18.05 / (1.95(E(t3)+F(t3)) + 20 F(t2) + 18.05(F(t1)+F(t5)+F(t6)+F(t7)+F(t8))) *)
  let res = Lazy.force sres in
  let g = Lazy.force sgraph in
  let thr = M.Symbolic.throughput res g "t7" in
  let spec = M.Symbolic.subst_frequencies thr paper_freq_bindings in
  let paper_expr =
    let c s = Poly.const (qd s) in
    let fv n = Poly.var (Var.firing n) in
    let e3 = Poly.var (Var.enabling "t3") in
    let num = c "18.05" in
    let den =
      Poly.add
        (Poly.mul (c "1.95") (Poly.add e3 (fv "t3")))
        (Poly.add
           (Poly.mul (c "20") (fv "t2"))
           (Poly.mul (c "18.05")
              (List.fold_left Poly.add Poly.zero [ fv "t1"; fv "t5"; fv "t6"; fv "t7"; fv "t8" ])))
    in
    Rf.make num den
  in
  qeq "matches the paper's closed form" true (Rf.equal spec paper_expr)

let test_symbolic_throughput_evaluates () =
  let res = Lazy.force sres in
  let g = Lazy.force sgraph in
  let thr = M.Symbolic.throughput res g "t7" in
  let v = M.Symbolic.eval_at thr (paper_time_bindings @ paper_freq_bindings) in
  let cres = Lazy.force cres in
  let cthr = M.Concrete.throughput cres (Lazy.force cgraph) "t7" in
  qeq "symbolic = concrete at paper point" true (Q.equal v cthr)

let test_markov_cross_check () =
  let res = Lazy.force cres in
  let g = Lazy.force cgraph in
  let dg = res.Rates.dg in
  let t7 = Net.trans_of_name (Tpn.net g.Sem.tpn) "t7" in
  let thr_markov =
    Markov.throughput
      ~probs:(fun e -> Q.to_float e.DG.prob)
      ~delays:(fun e -> Q.to_float e.DG.delay)
      dg
      ~count:(fun e -> List.length (List.filter (( = ) t7) e.DG.completed))
  in
  let thr_exact = Q.to_float (M.Concrete.throughput res g "t7") in
  Alcotest.(check (float 1e-9)) "power iteration agrees" thr_exact thr_markov

(* Property: symbolic throughput specializes correctly across random
   parameter points satisfying the paper's constraints. *)
let prop_symbolic_specializes =
  QCheck2.Test.make ~name:"symbolic throughput = concrete throughput (random params)" ~count:25
    QCheck2.Gen.(
      let* transit = int_range 1 200 in
      let* proc = int_range 1 50 in
      let* send = int_range 1 20 in
      let* slack = int_range 1 500 in
      let* loss_pkt = int_range 1 50 in
      let* loss_ack = int_range 1 50 in
      return (transit, proc, send, slack, loss_pkt, loss_ack))
    (fun (transit, proc, send, slack, loss_pkt, loss_ack) ->
      let p =
        {
          SW.timeout = Q.of_int ((2 * transit) + proc + slack);
          send_time = Q.of_int send;
          transit_time = Q.of_int transit;
          process_time = Q.of_int proc;
          packet_loss = Q.of_ints loss_pkt 100;
          ack_loss = Q.of_ints loss_ack 100;
        }
      in
      let cg = CG.build (SW.concrete p) in
      let cres = M.Concrete.analyze cg in
      let cthr = M.Concrete.throughput cres cg "t7" in
      let sres = Lazy.force sres in
      let sthr = M.Symbolic.throughput sres (Lazy.force sgraph) "t7" in
      let v =
        M.Symbolic.eval_at sthr
          [
            ("E(t3)", p.SW.timeout);
            ("F(t1)", p.SW.send_time); ("F(t2)", p.SW.send_time); ("F(t3)", p.SW.send_time);
            ("F(t4)", p.SW.transit_time); ("F(t5)", p.SW.transit_time);
            ("F(t6)", p.SW.process_time); ("F(t7)", p.SW.process_time);
            ("F(t8)", p.SW.transit_time); ("F(t9)", p.SW.transit_time);
            ("f(t4)", p.SW.packet_loss); ("f(t5)", Q.sub Q.one p.SW.packet_loss);
            ("f(t8)", Q.sub Q.one p.SW.ack_loss); ("f(t9)", p.SW.ack_loss);
          ]
      in
      Q.equal v cthr)

(* Lossless two-place ping-pong: no decision, one cycle go -> back. *)
let pingpong go back =
  let b = Net.builder "pingpong" in
  let a = Net.add_place b ~init:1 "a" in
  let c = Net.add_place b "c" in
  let _ = Net.add_transition b ~name:"go" ~inputs:[ (a, 1) ] ~outputs:[ (c, 1) ] in
  let _ = Net.add_transition b ~name:"back" ~inputs:[ (c, 1) ] ~outputs:[ (a, 1) ] in
  Tpn.make (Net.build b) [ ("go", Tpn.spec ~firing:go ()); ("back", Tpn.spec ~firing:back ()) ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_renewal_cycle () =
  (* the cycle collapses into its smallest state's self-loop: probability
     1, delay the period 3 + 5, solved like any renewal cycle *)
  let g = CG.build (pingpong (Tpn.Fixed (Q.of_int 3)) (Tpn.Fixed (Q.of_int 5))) in
  let res = M.Concrete.analyze g in
  Alcotest.(check (list int)) "one renewal node" [ 0 ] res.Rates.dg.DG.nodes;
  (match res.Rates.dg.DG.edges with
   | [ e ] ->
     qeq "self-loop" true (e.DG.src = 0 && e.DG.dst = DG.To 0);
     qeq "probability 1" true (Q.equal e.DG.prob Q.one)
   | _ -> Alcotest.fail "expected one edge");
  qeq "mean cycle time 8" true (Q.equal (M.mean_cycle_time res) (Q.of_int 8));
  qeq "throughput(go) 1/8" true (Q.equal (M.Concrete.throughput res g "go") (Q.of_ints 1 8))

let test_renewal_symbolic () =
  let go = Var.firing "go" and back = Var.firing "back" in
  let tpn = pingpong (Tpn.Sym go) (Tpn.Sym back) in
  let g = SG.build tpn in
  let thr = M.Symbolic.throughput (M.Symbolic.analyze g) g "back" in
  let period = Rf.of_poly (Poly.of_linexpr (Lin.add (Lin.var go) (Lin.var back))) in
  qeq "1 / (F(go) + F(back))" true (Rf.equal thr (Rf.div Rf.one period));
  let at = [ ("F(go)", Q.of_int 3); ("F(back)", Q.of_int 5) ] in
  match
    Tpan.Artifact.eval (Tpan.Canonical.of_tpn tpn) ~transition:"back" ~point:at
  with
  | Ok v -> qeq "eval at F(go)=3, F(back)=5" true (Q.equal v (Q.of_ints 1 8))
  | Error e -> Alcotest.fail (Tpan.Error.to_string e)

let test_terminating_run () =
  let b = Net.builder "once" in
  let p = Net.add_place b ~init:1 "p" in
  let _ = Net.add_transition b ~name:"done" ~inputs:[ (p, 1) ] ~outputs:[] in
  let g = CG.build (Tpn.make (Net.build b) [ ("done", Tpn.spec ~firing:(Tpn.Fixed Q.one) ()) ]) in
  match M.Concrete.analyze g with
  | _ -> Alcotest.fail "expected Unsolvable"
  | exception Rates.Unsolvable msg ->
    Alcotest.(check string) "message" "the system terminates: no steady state" msg

let test_disconnected_rejected () =
  (* a one-way initial choice into two loops that never communicate: the
     decision graph is reducible (the initial node is transient) -> the
     solver must refuse with a message naming its nodes rather than a
     singular matrix. With two self-loops per side each loop is lossy; with
     one it is decision-free, a renewal node. *)
  let reducible self_loops =
    let b = Net.builder "reducible" in
    let start = Net.add_place b ~init:1 "start" in
    let names = ref [] in
    let t name inputs outputs =
      ignore (Net.add_transition b ~name ~inputs ~outputs);
      names := name :: !names
    in
    List.iter
      (fun side ->
        let p = Net.add_place b ("p" ^ side) in
        t ("go_" ^ side) [ (start, 1) ] [ (p, 1) ];
        for i = 1 to self_loops do
          t (side ^ string_of_int i) [ (p, 1) ] [ (p, 1) ]
        done)
      [ "a"; "b" ];
    let half = Tpn.Freq (Q.of_ints 1 2) in
    Tpn.make (Net.build b)
      (List.map (fun n -> (n, Tpn.spec ~firing:(Tpn.Fixed Q.one) ~frequency:half ())) !names)
  in
  List.iter
    (fun self_loops ->
      let g = CG.build (reducible self_loops) in
      let nodes = (DG.of_graph ~add:Q.add ~mul:Q.mul g).DG.nodes in
      Alcotest.(check int) "the choice and one node per loop" 3 (List.length nodes);
      let names = String.concat ", " (List.map (fun n -> string_of_int (n + 1)) nodes) in
      match M.Concrete.analyze g with
      | _ -> Alcotest.fail "expected Unsolvable (disconnected)"
      | exception Rates.Unsolvable msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%d self-loops: names nodes {%s}" self_loops names)
          true
          (contains msg (Printf.sprintf "nodes {%s} is not strongly connected" names)))
    [ 2; 1 ]

let test_markov_periodic_chain () =
  (* A bipartite (period-2) decision graph: plain power iteration oscillates
     between two distributions forever; the damped iteration must converge
     to the true stationary vector pi = (1/2, 1/4, 1/4). *)
  let edge src dst prob delay =
    { DG.src; dst = DG.To dst; delay; prob; path = []; fired = []; completed = [] }
  in
  let dg =
    {
      DG.nodes = [ 0; 1; 2 ];
      edges = [ edge 0 1 0.5 1.0; edge 0 2 0.5 2.0; edge 1 0 1.0 1.0; edge 2 0 1.0 1.0 ];
    }
  in
  let pi = Markov.stationary ~probs:(fun e -> e.DG.prob) dg in
  Alcotest.(check (float 1e-9)) "pi(0)" 0.5 (List.assoc 0 pi);
  Alcotest.(check (float 1e-9)) "pi(1)" 0.25 (List.assoc 1 pi);
  Alcotest.(check (float 1e-9)) "pi(2)" 0.25 (List.assoc 2 pi);
  let thr =
    Markov.throughput
      ~probs:(fun e -> e.DG.prob)
      ~delays:(fun e -> e.DG.delay)
      dg
      ~count:(fun e -> match e.DG.dst with DG.To 0 -> 1 | _ -> 0)
  in
  (* rate of return to node 0: pi(1)+pi(2) arrivals per mean edge delay
     sum(pi.p.d) = .5*.5*1 + .5*.5*2 + .25*1 + .25*1 = 1.25 *)
  Alcotest.(check (float 1e-9)) "throughput" (0.5 /. 1.25) thr

let test_absorbing_rejected () =
  (* a net that can halt: one-shot choice between finishing and retrying
     once, with the terminal branch reachable *)
  let b = Net.builder "absorb" in
  let p = Net.add_place b ~init:1 "p" in
  let q_ = Net.add_place b "q" in
  let _ = Net.add_transition b ~name:"halt" ~inputs:[ (p, 1) ] ~outputs:[] in
  let _ = Net.add_transition b ~name:"loop" ~inputs:[ (p, 1) ] ~outputs:[ (q_, 1) ] in
  let _ = Net.add_transition b ~name:"again" ~inputs:[ (q_, 1) ] ~outputs:[ (p, 1) ] in
  let tpn =
    Tpn.make (Net.build b)
      [
        ("halt", Tpn.spec ~firing:(Tpn.Fixed Q.one) ~frequency:(Tpn.Freq (Q.of_ints 1 2)) ());
        ("loop", Tpn.spec ~firing:(Tpn.Fixed Q.one) ~frequency:(Tpn.Freq (Q.of_ints 1 2)) ());
        ("again", Tpn.spec ~firing:(Tpn.Fixed Q.one) ());
      ]
  in
  let g = CG.build tpn in
  match M.Concrete.analyze g with
  | _ -> Alcotest.fail "expected Unsolvable (absorbing)"
  | exception Rates.Unsolvable _ -> ()

let suite =
  ( "perf",
    [
      Alcotest.test_case "figure 5: decision graph" `Quick test_figure5_edges;
      Alcotest.test_case "figure 5: traversal rates" `Quick test_figure5_rates;
      Alcotest.test_case "throughput (concrete)" `Quick test_throughput_concrete;
      Alcotest.test_case "edge measures" `Quick test_edge_measures;
      Alcotest.test_case "utilization" `Quick test_utilization;
      Alcotest.test_case "figure 8: symbolic rates" `Quick test_figure8_symbolic_rates;
      Alcotest.test_case "paper's closed-form throughput" `Quick test_symbolic_throughput_specializes_to_paper;
      Alcotest.test_case "symbolic evaluates to concrete" `Quick test_symbolic_throughput_evaluates;
      Alcotest.test_case "markov cross-check" `Quick test_markov_cross_check;
      Alcotest.test_case "markov periodic chain converges" `Quick test_markov_periodic_chain;
      Alcotest.test_case "deterministic cycle analysis" `Quick test_renewal_cycle;
      Alcotest.test_case "symbolic renewal cycle" `Quick test_renewal_symbolic;
      Alcotest.test_case "terminating run has no steady state" `Quick test_terminating_run;
      Alcotest.test_case "absorbing graphs rejected" `Quick test_absorbing_rejected;
      Alcotest.test_case "disconnected graphs diagnosed" `Quick test_disconnected_rejected;
      QCheck_alcotest.to_alcotest prop_symbolic_specializes;
    ] )
