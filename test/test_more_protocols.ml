(* Tests for the parametric models: token ring (closed-form cycle time,
   scaling) and pipeline (true concurrency, marked-graph pacing), plus the
   interval evaluation of symbolic expressions. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module Iv = Tpan_symbolic.Interval
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module DG = Tpan_perf.Decision_graph
module M = Tpan_perf.Measures
module Sim = Tpan_sim.Simulator
module TR = Tpan_protocols.Token_ring
module PL = Tpan_protocols.Pipeline
module SW = Tpan_protocols.Stopwait

(* --- token ring --- *)

let test_token_ring_cycle_closed_form () =
  (* N stations, p = frame/(frame+idle): cycle = N(pass + p*tx) where use's
     firing time is tx+pass *)
  let p = TR.default_params in
  let tpn = TR.concrete p in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let n0 = List.hd res.Tpan_perf.Rates.dg.DG.nodes in
  let cycle = M.mean_time_between_visits res n0 in
  (* 4 stations, p = 1/3: 4*(5 + (1/3)*40) = 4*55/3 = 220/3 *)
  Alcotest.(check bool)
    (Format.asprintf "cycle %a = 220/3" Q.pp cycle)
    true
    (Q.equal cycle (Q.of_ints 220 3))

let test_token_ring_scaling () =
  List.iter
    (fun n ->
      let tpn = TR.concrete { TR.default_params with TR.stations = n } in
      let g = CG.build tpn in
      (* states: 1 decision + 2 firing states per station *)
      Alcotest.(check int) (Printf.sprintf "%d stations -> %d states" n (3 * n)) (3 * n)
        (CG.Graph.num_states g);
      Alcotest.(check int) "decision nodes = stations" n
        (List.length (Sem.branching_states g)))
    [ 1; 2; 4; 8; 16 ]

let test_token_ring_symbolic_closed_form () =
  let tpn = TR.symbolic ~stations:3 in
  let g = SG.build tpn in
  let res = M.Symbolic.analyze g in
  let n0 = List.hd res.Tpan_perf.Rates.dg.DG.nodes in
  let cycle = M.mean_time_between_visits res n0 in
  (* 3 * (f*tx + i*pass) / (f+i) *)
  let f = Poly.var (Var.frequency "frame") and i = Poly.var (Var.frequency "idle") in
  let tx = Poly.var (Var.firing "tx") and pass = Poly.var (Var.firing "pass") in
  let expected =
    Rf.make
      (Poly.scale (Q.of_int 3) (Poly.add (Poly.mul f tx) (Poly.mul i pass)))
      (Poly.add f i)
  in
  Alcotest.(check bool) "symbolic ring cycle" true (Rf.equal cycle expected)

let test_token_ring_fairness () =
  (* each station transmits at the same rate *)
  let tpn = TR.concrete TR.default_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let r0 = M.Concrete.throughput res g (TR.use 0) in
  for i = 1 to TR.default_params.TR.stations - 1 do
    Alcotest.(check bool) "equal shares" true
      (Q.equal r0 (M.Concrete.throughput res g (TR.use i)))
  done

let test_token_ring_sim_agreement () =
  let tpn = TR.concrete TR.default_params in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  let exact = Q.to_float (M.Concrete.throughput res g (TR.use 2)) in
  let stats = Sim.run ~seed:5 ~horizon:(Q.of_int 500_000) tpn in
  let sim = Sim.throughput stats (Net.trans_of_name (Tpn.net tpn) (TR.use 2)) in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.6f vs exact %.6f" sim exact)
    true
    (Float.abs (sim -. exact) /. exact < 0.05)

(* --- pipeline --- *)

let test_pipeline_concurrency () =
  (* the TRG must contain states with several simultaneously positive RFTs *)
  let tpn = PL.concrete PL.default_params in
  let g = CG.build tpn in
  let max_active =
    Array.fold_left
      (fun acc st ->
        let active = Array.fold_left (fun k r -> if Q.is_zero r then k else k + 1) 0 st.Sem.rft in
        Stdlib.max acc active)
      0 g.Sem.states
  in
  Alcotest.(check bool)
    (Printf.sprintf "max concurrent firings = %d >= 3" max_active)
    true (max_active >= 3)

let test_pipeline_pacing () =
  let p = PL.default_params in
  let tpn = PL.concrete p in
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  Alcotest.(check int) "one renewal node" 1 (List.length res.Tpan_perf.Rates.dg.DG.nodes);
  let per_packet = Q.inv (M.Concrete.throughput res g PL.t_deliver) in
  Alcotest.(check bool)
    (Format.asprintf "per-packet %a = bottleneck %a" Q.pp per_packet Q.pp (PL.bottleneck p))
    true
    (Q.equal per_packet (PL.bottleneck p))

let test_pipeline_sim () =
  let p = PL.default_params in
  let tpn = PL.concrete p in
  let net = Tpn.net tpn in
  let stats = Sim.run ~seed:8 ~horizon:(Q.of_int 100_000) tpn in
  let thr = Sim.throughput stats (Net.trans_of_name net PL.t_deliver) in
  let expected = 1. /. Q.to_float (PL.bottleneck p) in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.6f vs 1/bottleneck %.6f" thr expected)
    true
    (Float.abs (thr -. expected) /. expected < 0.01)

let test_pipeline_uniform () =
  (* uniform delays d: adjacent sums are all 2d *)
  let p = { PL.hop_delays = List.map Q.of_int [ 10; 10; 10 ]; inject_delay = Q.of_int 10 } in
  Alcotest.(check bool) "uniform bottleneck = 2d" true (Q.equal (PL.bottleneck p) (Q.of_int 20));
  let tpn = PL.concrete p in
  let g = CG.build tpn in
  let thr = M.Concrete.throughput (M.Concrete.analyze g) g PL.t_deliver in
  Alcotest.(check bool) "one packet per 20ms" true (Q.equal thr (Q.of_ints 1 20))

(* The pipeline through the facade, the sweep engine and the checker:
   its one renewal node answers on every path. *)
let test_pipeline_every_path () =
  let m = Option.get (Tpan.Models.find "pipeline") in
  (match Tpan.Analysis.compute ~throughputs:[ PL.t_deliver ] (m.Tpan.Models.make []) with
   | Ok r ->
     Alcotest.(check int) "states" 13 r.Tpan.Analysis.states;
     Alcotest.(check int) "one renewal node" 1 r.Tpan.Analysis.decision_nodes;
     Alcotest.(check string) "mean cycle time" "35" (Q.to_string r.Tpan.Analysis.mean_cycle_time);
     Alcotest.(check string) "deliver" "1/35"
       (Q.to_string (List.assoc PL.t_deliver r.Tpan.Analysis.throughputs))
   | Error e -> Alcotest.fail (Tpan.Error.to_string e));
  let axes =
    match Tpan_perf.Sweep.parse_axis "hop1=10..30:3" with
    | Ok a -> [ a ]
    | Error msg -> Alcotest.fail msg
  in
  let t = Tpan_perf.Sweep.over_tpn ~make:m.Tpan.Models.make ~throughputs:[ PL.t_deliver ] axes in
  Alcotest.(check (list string)) "1/bottleneck at hop1 = 10, 20, 30" [ "1/35"; "1/45"; "1/55" ]
    (List.map
       (fun (row : Tpan_perf.Sweep.row) ->
         Alcotest.(check bool) "no row error" true (row.Tpan_perf.Sweep.error = None);
         Q.to_string (List.assoc "thr(deliver)" row.Tpan_perf.Sweep.values))
       t.Tpan_perf.Sweep.rows);
  let module CK = Tpan.Checker.Check in
  let config = CK.quick CK.default in
  match Tpan.Checker.check_source ~config (Tpan.Query.Model { name = "pipeline"; params = [] }) with
  | Ok o ->
    Alcotest.(check int) "no skipped point" 0 (List.length o.CK.skipped);
    Alcotest.(check int) "the point agrees" o.CK.points o.CK.agreed
  | Error e -> Alcotest.fail (Tpan.Error.to_string e)

(* --- interval evaluation --- *)

let test_interval_arith () =
  let a = Iv.of_ints 1 3 and b = Iv.of_ints (-2) 2 in
  Alcotest.(check bool) "add" true (Iv.equal (Iv.add a b) (Iv.of_ints (-1) 5));
  Alcotest.(check bool) "mul" true (Iv.equal (Iv.mul a b) (Iv.of_ints (-6) 6));
  Alcotest.(check bool) "sub" true (Iv.equal (Iv.sub a a) (Iv.of_ints (-2) 2));
  Alcotest.(check bool) "pow even spanning" true (Iv.equal (Iv.pow b 2) (Iv.of_ints 0 4));
  Alcotest.(check bool) "pow odd" true (Iv.equal (Iv.pow b 3) (Iv.of_ints (-8) 8));
  Alcotest.(check bool) "div" true (Iv.equal (Iv.div a (Iv.of_ints 2 4)) (Iv.make (Q.of_ints 1 4) (Q.of_ints 3 2)));
  Alcotest.check_raises "div by spanning zero" Division_by_zero (fun () ->
      ignore (Iv.div a b));
  Alcotest.check_raises "bad interval" (Invalid_argument "Interval.make: hi < lo") (fun () ->
      ignore (Iv.of_ints 3 1))

let test_interval_point_degenerates () =
  (* point intervals give exact evaluation *)
  let x = Poly.var (Var.param "ix") and y = Poly.var (Var.param "iy") in
  let r = Rf.make (Poly.add (Poly.mul x y) Poly.one) (Poly.add x y) in
  let env v = match Var.name v with "ix" -> Iv.point (Q.of_int 2) | _ -> Iv.point (Q.of_int 3) in
  let got = Iv.eval_ratfun env r in
  Alcotest.(check bool) "point eval" true
    (Iv.is_point got && Q.equal got.Iv.lo (Q.of_ints 7 5))

let test_interval_bounds_throughput () =
  (* throughput bounds when transit time ranges over [95, 115] ms: the
     bounds must bracket the exact values at sampled transit times *)
  let stpn = SW.symbolic () in
  let sg = SG.build stpn in
  let sres = M.Symbolic.analyze sg in
  let thr = M.Symbolic.throughput sres sg SW.t_process_ack in
  let qd = Q.of_decimal_string in
  let env v =
    match Var.name v with
    | "E(t3)" -> Iv.point (Q.of_int 1000)
    | "F(t1)" | "F(t2)" | "F(t3)" -> Iv.point Q.one
    | "F(t4)" | "F(t5)" | "F(t8)" | "F(t9)" -> Iv.make (Q.of_int 95) (Q.of_int 115)
    | "F(t6)" | "F(t7)" -> Iv.point (qd "13.5")
    | "f(t4)" | "f(t9)" -> Iv.point (Q.of_ints 1 20)
    | "f(t5)" | "f(t8)" -> Iv.point (Q.of_ints 19 20)
    | other -> Alcotest.fail ("unexpected var " ^ other)
  in
  let bounds = Iv.eval_ratfun env thr in
  Alcotest.(check bool) "bounds are proper" true (Q.compare bounds.Iv.lo bounds.Iv.hi < 0);
  List.iter
    (fun transit ->
      let v =
        M.Symbolic.eval_at thr
          [
            ("E(t3)", Q.of_int 1000);
            ("F(t1)", Q.one); ("F(t2)", Q.one); ("F(t3)", Q.one);
            ("F(t4)", Q.of_int transit); ("F(t5)", Q.of_int transit);
            ("F(t6)", qd "13.5"); ("F(t7)", qd "13.5");
            ("F(t8)", Q.of_int transit); ("F(t9)", Q.of_int transit);
            ("f(t4)", Q.of_ints 1 20); ("f(t5)", Q.of_ints 19 20);
            ("f(t8)", Q.of_ints 19 20); ("f(t9)", Q.of_ints 1 20);
          ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "exact value at transit=%d within bounds" transit)
        true (Iv.contains bounds v))
    [ 95; 100; 106; 115 ]

let prop_interval_mul_sound =
  QCheck2.Test.make ~name:"interval multiplication is sound" ~count:300
    QCheck2.Gen.(
      let e = int_range (-10) 10 in
      let* a = e and* b = e and* c = e and* d = e in
      let* x = e and* y = e in
      return (a, b, c, d, x, y))
    (fun (a, b, c, d, x, y) ->
      let lo1 = min a b and hi1 = max a b in
      let lo2 = min c d and hi2 = max c d in
      let i1 = Iv.of_ints lo1 hi1 and i2 = Iv.of_ints lo2 hi2 in
      let x = max lo1 (min hi1 x) and y = max lo2 (min hi2 y) in
      Iv.contains (Iv.mul i1 i2) (Q.of_int (x * y)))

let suite =
  ( "more_protocols",
    [
      Alcotest.test_case "token ring closed-form cycle" `Quick test_token_ring_cycle_closed_form;
      Alcotest.test_case "token ring scaling (states = 3N)" `Quick test_token_ring_scaling;
      Alcotest.test_case "token ring symbolic cycle" `Quick test_token_ring_symbolic_closed_form;
      Alcotest.test_case "token ring fairness" `Quick test_token_ring_fairness;
      Alcotest.test_case "token ring vs simulation" `Slow test_token_ring_sim_agreement;
      Alcotest.test_case "pipeline concurrency" `Quick test_pipeline_concurrency;
      Alcotest.test_case "pipeline pacing = adjacent-sum bottleneck" `Quick test_pipeline_pacing;
      Alcotest.test_case "pipeline vs simulation" `Slow test_pipeline_sim;
      Alcotest.test_case "pipeline uniform delays" `Quick test_pipeline_uniform;
      Alcotest.test_case "pipeline on every analysis path" `Quick test_pipeline_every_path;
      Alcotest.test_case "interval arithmetic" `Quick test_interval_arith;
      Alcotest.test_case "interval point evaluation" `Quick test_interval_point_degenerates;
      Alcotest.test_case "interval throughput bounds" `Quick test_interval_bounds_throughput;
      QCheck_alcotest.to_alcotest prop_interval_mul_sound;
    ] )
