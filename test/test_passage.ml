(* Tests for first-passage (latency) analysis: hand-computed expectations,
   symbolic/concrete agreement, simulation agreement, divergence
   detection; and the renewal-chain solve against the direct
   first-passage system, on every builtin and on generated nets. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module P = Tpan_perf.Passage
module Sim = Tpan_sim.Simulator
module SW = Tpan_protocols.Stopwait
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module M = Tpan_perf.Measures
module QS = Tpan_mathkit.Sparse.Make (Q)

let qd = Q.of_decimal_string

let test_delivery_latency_hand_computed () =
  (* Mean time from protocol start to the first delivery (t6 completes).
     By hand: 1 ms to send (t2), then from the packet decision x satisfies
       x = 0.95·(106.7 + 13.5) + 0.05·(1002 + x)
     so x = 164.29/0.95 = 172.9368..., total 173.9368... =
     1 + 164.29/0.95 = (0.95 + 164.29)/0.95 = 165.24/0.95 = 16524/95. *)
  let tpn = SW.concrete SW.paper_params in
  let g = CG.build tpn in
  match P.concrete_latency g ~event:(P.completion_event tpn SW.t_receive) () with
  | None -> Alcotest.fail "latency should be finite"
  | Some h ->
    Alcotest.(check bool)
      (Format.asprintf "h = %a, expected 16524/95" Q.pp h)
      true
      (Q.equal h (Q.div (qd "165.24") (qd "0.95")))

let test_ack_latency_exceeds_delivery () =
  let tpn = SW.concrete SW.paper_params in
  let g = CG.build tpn in
  let deliver = Option.get (P.concrete_latency g ~event:(P.completion_event tpn SW.t_receive) ()) in
  let acked = Option.get (P.concrete_latency g ~event:(P.completion_event tpn SW.t_process_ack) ()) in
  Alcotest.(check bool) "ack comes after delivery" true (Q.compare acked deliver > 0);
  (* the gap is at least the ack transit + processing *)
  Alcotest.(check bool) "gap >= 120.2" true
    (Q.compare (Q.sub acked deliver) (qd "120.2") >= 0)

let test_firing_vs_completion () =
  let tpn = SW.concrete SW.paper_params in
  let g = CG.build tpn in
  let begin_send = Option.get (P.concrete_latency g ~event:(P.firing_event tpn SW.t_send) ()) in
  let end_send = Option.get (P.concrete_latency g ~event:(P.completion_event tpn SW.t_send) ()) in
  Alcotest.(check bool) "send begins immediately" true (Q.is_zero begin_send);
  Alcotest.(check bool) "send completes after F(t2)=1" true (Q.equal end_send Q.one)

let test_symbolic_latency_matches () =
  let stpn = SW.symbolic () in
  let sg = SG.build stpn in
  let expr = Option.get (P.symbolic_latency sg ~event:(P.completion_event stpn SW.t_receive) ()) in
  let v =
    Tpan_perf.Measures.Symbolic.eval_at expr
      [
        ("E(t3)", Q.of_int 1000);
        ("F(t1)", Q.one); ("F(t2)", Q.one); ("F(t3)", Q.one);
        ("F(t4)", qd "106.7"); ("F(t5)", qd "106.7");
        ("F(t6)", qd "13.5"); ("F(t7)", qd "13.5");
        ("F(t8)", qd "106.7"); ("F(t9)", qd "106.7");
        ("f(t4)", Q.of_ints 1 20); ("f(t5)", Q.of_ints 19 20);
        ("f(t8)", Q.of_ints 19 20); ("f(t9)", Q.of_ints 1 20);
      ]
  in
  Alcotest.(check bool) "symbolic latency = concrete value" true
    (Q.equal v (Q.div (qd "165.24") (qd "0.95")))

let test_unreachable_event () =
  (* an event that can never happen: infinite expectation *)
  let b = Net.builder "loop" in
  let p = Net.add_place b ~init:1 "p" in
  let q_ = Net.add_place b "q" in
  let _ = Net.add_transition b ~name:"spin" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ] in
  let _ = Net.add_transition b ~name:"never" ~inputs:[ (q_, 1) ] ~outputs:[] in
  let net = Net.build b in
  let tpn =
    Tpn.make net
      [
        ("spin", Tpn.spec ~firing:(Tpn.Fixed Q.one) ());
        ("never", Tpn.spec ~firing:(Tpn.Fixed Q.one) ());
      ]
  in
  let g = CG.build tpn in
  Alcotest.(check bool) "diverges" true
    (P.concrete_latency g ~event:(P.completion_event tpn "never") () = None)

let test_possibly_escaping_event () =
  (* with probability 1/2 the system falls into a sink that never produces
     the event: expectation infinite, must return None *)
  let b = Net.builder "escape" in
  let p = Net.add_place b ~init:1 "p" in
  let good = Net.add_place b "good" in
  let bad = Net.add_place b "bad" in
  let _ = Net.add_transition b ~name:"win" ~inputs:[ (p, 1) ] ~outputs:[ (good, 1) ] in
  let _ = Net.add_transition b ~name:"lose" ~inputs:[ (p, 1) ] ~outputs:[ (bad, 1) ] in
  let _ = Net.add_transition b ~name:"celebrate" ~inputs:[ (good, 1) ] ~outputs:[ (good, 1) ] in
  let _ = Net.add_transition b ~name:"sulk" ~inputs:[ (bad, 1) ] ~outputs:[ (bad, 1) ] in
  let net = Net.build b in
  let half = Q.of_ints 1 2 in
  let tpn =
    Tpn.make net
      [
        ("win", Tpn.spec ~firing:(Tpn.Fixed Q.one) ~frequency:(Tpn.Freq half) ());
        ("lose", Tpn.spec ~firing:(Tpn.Fixed Q.one) ~frequency:(Tpn.Freq half) ());
        ("celebrate", Tpn.spec ~firing:(Tpn.Fixed Q.one) ());
        ("sulk", Tpn.spec ~firing:(Tpn.Fixed Q.one) ());
      ]
  in
  let g = CG.build tpn in
  Alcotest.(check bool) "escape detected" true
    (P.concrete_latency g ~event:(P.completion_event tpn "celebrate") () = None);
  (* but the reachable-with-certainty event is finite *)
  (match P.concrete_latency g ~event:(P.firing_event tpn "win") () with
   | Some _ -> ()
   | None ->
     (* 'win' only fires with probability 1/2: also divergent! *)
     ());
  (* an event on ALL branches is finite: completion of win-or-lose — use
     the decision itself *)
  let ev (e : _ Sem.edge) = e.Sem.fired <> [] && List.length e.Sem.fired = 1 && e.Sem.delay = Q.zero in
  ignore ev;
  Alcotest.(check bool) "first decision latency finite" true
    (P.concrete_latency g
       ~event:(fun e -> e.Sem.fired <> [] && e.Sem.completed = [] && Q.is_zero e.Sem.delay)
       ()
     <> None)

let test_latency_agrees_with_simulation () =
  (* mean time to first delivery: restart simulation repeatedly and average *)
  let tpn = SW.concrete SW.paper_params in
  let g = CG.build tpn in
  let exact = Q.to_float (Option.get (P.concrete_latency g ~event:(P.completion_event tpn SW.t_receive) ())) in
  let net = Tpn.net tpn in
  let t6 = Net.trans_of_name net SW.t_receive in
  (* estimate via renewal: completions of t6 recur; time-to-first from the
     initial state equals the renewal-cycle estimate only approximately, so
     simulate many short runs and take the first completion time. We lack a
     "first event time" probe in the simulator API; instead check the
     steady-state rate of t6 is consistent with the passage time being
     finite and below the mean cycle. *)
  let stats = Sim.run ~seed:21 ~horizon:(Q.of_int 1_000_000) tpn in
  Alcotest.(check bool) "t6 completions occur" true (stats.Sim.completed.(t6) > 0);
  Alcotest.(check bool) "latency below mean inter-delivery time" true
    (exact < Q.to_float stats.Sim.sim_time /. float_of_int stats.Sim.completed.(t6))

(* The direct first-passage system over ℚ, kept as the reference for the
   renewal-chain solve:

     h(s) = Σ_{e out of s} p_e·(d_e + [e not an event]·h(dst e))

   over the states the initial state reaches before the event, in row
   form (batch's TRG has 474 states). A deadlock among them, or a
   singular system, means the event is not almost surely reached. *)
let reference (g : CG.Graph.graph) ~event =
  let n = Array.length g.Sem.states in
  let idx = Array.make n (-1) and states = ref [] and k = ref 0 in
  let rec visit s =
    if idx.(s) < 0 then begin
      idx.(s) <- !k;
      incr k;
      states := s :: !states;
      List.iter (fun (e : _ Sem.edge) -> if not (event e) then visit e.Sem.dst) g.Sem.out.(s)
    end
  in
  visit 0;
  if List.exists (fun s -> g.Sem.out.(s) = []) !states then None
  else begin
    let rows = Array.make !k [] and b = Array.make !k Q.zero in
    List.iter
      (fun s ->
        let i = idx.(s) in
        rows.(i) <- [ (i, Q.one) ];
        List.iter
          (fun (e : _ Sem.edge) ->
            b.(i) <- Q.add b.(i) (Q.mul e.Sem.prob e.Sem.delay);
            if not (event e) then rows.(i) <- (idx.(e.Sem.dst), Q.neg e.Sem.prob) :: rows.(i))
          g.Sem.out.(s))
      !states;
    match QS.solve_rows ~ncols:!k rows b with
    | QS.Unique h -> Some h.(idx.(0))
    | QS.Underdetermined | QS.Inconsistent -> None
  end

let builtin name = (Option.get (Tpan.Models.find name)).Tpan.Models.make []
let transitions tpn = List.map (Net.trans_name (Tpn.net tpn)) (Net.transitions (Tpn.net tpn))

let show = function None -> "infinite" | Some q -> Q.to_string q

let same_latency what expected got =
  match (expected, got) with
  | None, None -> ()
  | Some a, Some b when Q.equal a b -> ()
  | _ -> Alcotest.failf "%s: expected %s, got %s" what (show expected) (show got)

let test_concrete_matches_reference () =
  List.iter
    (fun name ->
      let tpn = builtin name in
      let g = CG.build tpn in
      List.iter
        (fun t ->
          let event = P.completion_event tpn t in
          same_latency (name ^ " " ^ t) (reference g ~event) (P.concrete_latency g ~event ()))
        (transitions tpn))
    [ "stopwait"; "abp"; "handshake"; "channel"; "ring"; "pipeline"; "batch" ]

(* Every transition's symbolic latency, with its name. *)
let symbolic_latencies tpn =
  let g = SG.build tpn in
  List.map
    (fun t -> (t, P.symbolic_latency g ~event:(P.completion_event tpn t) ()))
    (transitions tpn)

let test_symbolic_matches_reference () =
  let nets =
    List.map (fun name -> (name, builtin name))
      [ "stopwait-sym"; "abp-sym"; "handshake-sym"; "scheduler-sym"; "ring-sym" ]
    @ List.init 50 (fun i ->
          let seed = 100000 + i in
          (Printf.sprintf "gen %d" seed, (Tpan_check.Gen.case ~seed).Tpan_check.Gen.tpn))
  in
  List.iter
    (fun (name, tpn) ->
      let point = Option.get (Tpan_check.Sampler.base_point tpn) in
      let bound = Tpn.bind_times tpn point in
      let g = CG.build bound in
      List.iter
        (fun (t, h) ->
          let what = Printf.sprintf "%s %s" name t in
          Option.iter
            (fun h ->
              let n = Rf.num h and d = Rf.den h in
              if not (Poly.equal (Poly.gcd n d) Poly.one) then
                Alcotest.failf "%s: latency is not in lowest terms" what;
              if not (Q.equal (fst (Poly.monic_factor d)) Q.one) then
                Alcotest.failf "%s: latency has a denominator that is not monic" what)
            h;
          same_latency what
            (reference g ~event:(P.completion_event bound t))
            (Option.map (fun h -> M.Symbolic.eval_at h point) h))
        (symbolic_latencies tpn))
    nets

let test_abp_all_transitions () =
  let abp_point = List.map (fun (k, v) -> (k, qd v)) Test_rates.abp_point in
  let abp = builtin "abp" in
  let g = CG.build abp in
  let forms = symbolic_latencies (builtin "abp-sym") in
  Alcotest.(check int) "one latency per transition" 18 (List.length forms);
  List.iter
    (fun (t, h) ->
      same_latency ("abp-sym " ^ t ^ " at the paper's point")
        (P.concrete_latency g ~event:(P.completion_event abp t) ())
        (Option.map (fun h -> M.Symbolic.eval_at h abp_point) h))
    forms

let test_deadline_reaches_solve () =
  let tpn = builtin "abp-sym" in
  let g = SG.build tpn in
  let event = P.completion_event tpn "lose_pkt0" in
  let ctx = Tpan_obs.Context.make ~deadline:0.005 () in
  match Tpan_obs.Context.with_ctx ctx (fun () -> P.symbolic_latency g ~event ()) with
  | exception Tpan_obs.Cancel.Cancelled _ -> ()
  | _ -> Alcotest.fail "a 5 ms deadline must cancel the latency solve"

let test_unknown_transition () =
  let tpn = SW.concrete SW.paper_params in
  Alcotest.check_raises "completion_event" (Invalid_argument "unknown transition \"nosuch\"")
    (fun () -> ignore (P.completion_event tpn "nosuch" : (Q.t, Q.t) Sem.edge -> bool));
  Alcotest.check_raises "firing_event" (Invalid_argument "unknown transition \"nosuch\"")
    (fun () -> ignore (P.firing_event tpn "nosuch" : (Q.t, Q.t) Sem.edge -> bool))

let suite =
  ( "passage",
    [
      Alcotest.test_case "delivery latency (hand computed)" `Quick test_delivery_latency_hand_computed;
      Alcotest.test_case "ack latency > delivery latency" `Quick test_ack_latency_exceeds_delivery;
      Alcotest.test_case "firing vs completion events" `Quick test_firing_vs_completion;
      Alcotest.test_case "symbolic latency expression" `Quick test_symbolic_latency_matches;
      Alcotest.test_case "unreachable event diverges" `Quick test_unreachable_event;
      Alcotest.test_case "probabilistic escape diverges" `Quick test_possibly_escaping_event;
      Alcotest.test_case "latency consistent with simulation" `Slow test_latency_agrees_with_simulation;
      Alcotest.test_case "concrete builtins = direct system" `Quick test_concrete_matches_reference;
      Alcotest.test_case "symbolic latencies = direct system at the base point" `Quick
        test_symbolic_matches_reference;
      Alcotest.test_case "all 18 ABP latencies at the paper's point" `Quick
        test_abp_all_transitions;
      Alcotest.test_case "deadline reaches the latency solve" `Quick test_deadline_reaches_solve;
      Alcotest.test_case "unknown transition is an input error" `Quick test_unknown_transition;
    ] )
