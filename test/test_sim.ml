(* Tests for the simulation substrate and the analytic/Monte-Carlo
   agreement on the paper's protocol. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn
module CG = Tpan_core.Concrete
module M = Tpan_perf.Measures
module Rng = Tpan_sim.Rng
module Stats = Tpan_sim.Stats
module Sim = Tpan_sim.Simulator
module SW = Tpan_protocols.Stopwait

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let xs = List.init 10 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "same stream" true (xs = ys);
  let c = Rng.create ~seed:8 in
  let zs = List.init 10 (fun _ -> Rng.next_int64 c) in
  Alcotest.(check bool) "different seed differs" false (xs = zs)

let test_rng_uniform () =
  let r = Rng.create ~seed:1 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    let x = Rng.float r in
    Alcotest.(check bool) "in range" true (x >= 0. && x < 1.);
    acc := !acc +. x
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_weighted () =
  let r = Rng.create ~seed:3 in
  let n = 20_000 in
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.choose_weighted r [ ("a", 0.05); ("b", 0.95) ] = "a" then incr count
  done;
  let frac = float_of_int !count /. float_of_int n in
  Alcotest.(check bool) "5% branch frequency" true (Float.abs (frac -. 0.05) < 0.01);
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Rng.choose_weighted: all-zero weights") (fun () ->
      ignore (Rng.choose_weighted r [ ("a", 0.) ]))

let test_rng_weighted_zero_entries () =
  (* Zero-weight alternatives must never be chosen — in particular a
     trailing zero entry must not be reachable through the round-off
     fallback. *)
  let weights = [ ("z0", 0.); ("a", 1e-12); ("b", 0.7); ("z1", 0.); ("c", 0.3); ("z2", 0.) ] in
  List.iter
    (fun seed ->
      let r = Rng.create ~seed in
      for _ = 1 to 5_000 do
        let v = Rng.choose_weighted r weights in
        if v.[0] = 'z' then Alcotest.failf "zero-weight entry %s chosen" v
      done)
    [ 0; 1; 2; 3; 17; 123456 ];
  (* all-zero tail after the only positive entry *)
  let r = Rng.create ~seed:9 in
  for _ = 1 to 1_000 do
    Alcotest.(check string)
      "only positive entry wins" "a"
      (Rng.choose_weighted r [ ("a", 0.25); ("z0", 0.); ("z1", 0.) ])
  done

(* --- Stats --- *)

let test_running_stats () =
  let s = Stats.Running.create () in
  List.iter (Stats.Running.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Running.mean s);
  Alcotest.(check (float 1e-9)) "sample variance" (32. /. 7.) (Stats.Running.variance s);
  let lo, hi = Stats.Running.ci95 s in
  Alcotest.(check bool) "ci brackets mean" true (lo < 5.0 && 5.0 < hi)

let test_time_weighted () =
  let tw = Stats.Time_weighted.create () in
  Stats.Time_weighted.observe tw ~at:0. 1.;
  Stats.Time_weighted.observe tw ~at:10. 3.;
  Stats.Time_weighted.close tw ~at:20.;
  (* 1 for 10 time units, 3 for 10: average 2 *)
  Alcotest.(check (float 1e-9)) "average" 2.0 (Stats.Time_weighted.average tw)

let test_time_weighted_close_first () =
  (* Closing an accumulator that never observed anything (a simulation that
     ends before its first sample) must be well defined: zero span, zero
     average, no exception. *)
  let tw = Stats.Time_weighted.create () in
  Stats.Time_weighted.close tw ~at:7.;
  Alcotest.(check (float 1e-9)) "empty average" 0. (Stats.Time_weighted.average tw);
  (* and the accumulator stays usable *)
  Stats.Time_weighted.observe tw ~at:10. 4.;
  Stats.Time_weighted.close tw ~at:20.;
  Alcotest.(check (float 1e-9)) "later average" 4. (Stats.Time_weighted.average tw)

(* --- Simulator vs analysis --- *)

let test_sim_matches_analysis () =
  let tpn = SW.concrete SW.paper_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let exact = Q.to_float (M.Concrete.throughput res g "t7") in
  let net = Tpn.net tpn in
  let t7 = Net.trans_of_name net "t7" in
  let stats = Sim.run ~seed:11 ~horizon:(Q.of_int 3_000_000) tpn in
  Alcotest.(check bool) "no deadlock" false stats.Sim.deadlocked;
  let simulated = Sim.throughput stats t7 in
  let rel = Float.abs (simulated -. exact) /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.6f vs exact %.6f within 3%%" simulated exact)
    true (rel < 0.03)

let test_sim_utilization_matches () =
  let tpn = SW.concrete SW.paper_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let net = Tpn.net tpn in
  let p4 = Net.place_of_name net "p4" in
  let exact =
    Q.to_float
      (M.Concrete.utilization res ~graph:g (fun st ->
           Tpan_petri.Marking.tokens st.Tpan_core.Semantics.marking p4 > 0))
  in
  let stats = Sim.run ~seed:5 ~horizon:(Q.of_int 2_000_000) tpn in
  let simulated = Sim.utilization stats p4 in
  Alcotest.(check bool)
    (Printf.sprintf "p4 utilization sim %.4f vs exact %.4f" simulated exact)
    true
    (Float.abs (simulated -. exact) < 0.02)

let test_sim_deadlock () =
  let b = Net.builder "once" in
  let p = Net.add_place b ~init:1 "p" in
  let _ = Net.add_transition b ~name:"t" ~inputs:[ (p, 1) ] ~outputs:[] in
  let tpn = Tpn.make (Net.build b) [ ("t", Tpn.spec ~firing:(Tpn.Fixed (Q.of_int 2)) ()) ] in
  let stats = Sim.run ~horizon:(Q.of_int 100) tpn in
  Alcotest.(check bool) "deadlocked" true stats.Sim.deadlocked;
  Alcotest.(check int) "one completion" 1 stats.Sim.completed.(0);
  Alcotest.(check bool) "stops at the deadlock instant" true (Q.equal (Q.of_int 2) stats.Sim.sim_time)

let test_sim_timeout_priority () =
  (* ack arriving exactly at timeout expiry: t7 must always win (zero
     frequency of t3) — lossless medium, tight timeout *)
  let p =
    { SW.paper_params with
      SW.timeout = Q.of_decimal_string "226.9" (* = 106.7+13.5+106.7 *);
      packet_loss = Q.zero; ack_loss = Q.zero }
  in
  let tpn = SW.concrete p in
  let net = Tpn.net tpn in
  let stats = Sim.run ~seed:1 ~horizon:(Q.of_int 500_000) tpn in
  Alcotest.(check int) "no timeouts ever fire" 0
    stats.Sim.completed.(Net.trans_of_name net "t3");
  Alcotest.(check bool) "progress" true (stats.Sim.completed.(Net.trans_of_name net "t7") > 100)

let test_replications () =
  let tpn = SW.concrete SW.paper_params in
  let net = Tpn.net tpn in
  let t7 = Net.trans_of_name net "t7" in
  let est =
    Sim.replicate ~seed:9 ~runs:5 ~horizon:(Q.of_int 400_000) tpn (fun s -> Sim.throughput s t7)
  in
  Alcotest.(check int) "runs" 5 est.Sim.runs;
  let lo, hi = est.Sim.ci95 in
  Alcotest.(check bool) "interval is proper" true (lo <= est.Sim.mean && est.Sim.mean <= hi);
  Alcotest.(check bool) "non-degenerate spread" true (est.Sim.std_error > 0.)

let prop_sim_conserves_safeness =
  (* the stop-and-wait net is safe: simulation must keep p4 at <= 1 token;
     mean_tokens of any place stays within [0, 1] *)
  QCheck2.Test.make ~name:"simulation respects safeness" ~count:10
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let tpn = SW.concrete SW.paper_params in
      let stats = Sim.run ~seed ~horizon:(Q.of_int 50_000) tpn in
      Array.for_all (fun qt -> Q.to_float qt <= Q.to_float stats.Sim.sim_time +. 1e-9) stats.Sim.place_time)

let test_warmup_removes_transient () =
  (* a 100 ms one-shot prologue feeding a 10 ms cycle: without warmup the
     estimated rate is biased low by the prologue; with warmup = 100 the
     estimate is exactly the steady rate 0.1 *)
  let b = Net.builder "transient" in
  let p = Net.add_place b ~init:1 "p" in
  let q_ = Net.add_place b "q" in
  let _ = Net.add_transition b ~name:"prologue" ~inputs:[ (p, 1) ] ~outputs:[ (q_, 1) ] in
  let _ = Net.add_transition b ~name:"cycle" ~inputs:[ (q_, 1) ] ~outputs:[ (q_, 1) ] in
  let tpn =
    Tpn.make (Net.build b)
      [
        ("prologue", Tpn.spec ~firing:(Tpn.Fixed (Q.of_int 100)) ());
        ("cycle", Tpn.spec ~firing:(Tpn.Fixed (Q.of_int 10)) ());
      ]
  in
  let net = Tpn.net tpn in
  let cycle = Net.trans_of_name net "cycle" in
  let cold = Sim.run ~horizon:(Q.of_int 1000) tpn in
  let warm = Sim.run ~warmup:(Q.of_int 100) ~horizon:(Q.of_int 1000) tpn in
  Alcotest.(check (float 1e-9)) "cold estimate biased" 0.09 (Sim.throughput cold cycle);
  Alcotest.(check (float 1e-9)) "warm estimate exact" 0.1 (Sim.throughput warm cycle);
  (* boundary semantics: an event at exactly the warmup instant counts
     (the prologue completes at t = 100 = warmup) *)
  Alcotest.(check int) "boundary event counted once" 1
    warm.Sim.completed.(Net.trans_of_name net "prologue");
  (* place-time integrals follow the same window: q is marked the whole
     post-warmup span except while cycle is firing... cycle absorbs q, so
     q's marked share after warmup is 0 (token always inside the firing) *)
  Alcotest.(check bool) "sim_time measures post-warmup span" true
    (Q.equal warm.Sim.sim_time (Q.of_int 1000))

let suite =
  ( "sim",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng uniformity" `Quick test_rng_uniform;
      Alcotest.test_case "rng weighted choice" `Quick test_rng_weighted;
      Alcotest.test_case "rng weighted: zero entries unreachable" `Quick
        test_rng_weighted_zero_entries;
      Alcotest.test_case "running stats" `Quick test_running_stats;
      Alcotest.test_case "time-weighted average" `Quick test_time_weighted;
      Alcotest.test_case "time-weighted close before observe" `Quick
        test_time_weighted_close_first;
      Alcotest.test_case "simulation matches analysis" `Slow test_sim_matches_analysis;
      Alcotest.test_case "utilization matches" `Slow test_sim_utilization_matches;
      Alcotest.test_case "deadlock handling" `Quick test_sim_deadlock;
      Alcotest.test_case "timeout priority in simulation" `Slow test_sim_timeout_priority;
      Alcotest.test_case "replications" `Slow test_replications;
      Alcotest.test_case "warmup removes transient" `Quick test_warmup_removes_transient;
      QCheck_alcotest.to_alcotest prop_sim_conserves_safeness;
    ] )
