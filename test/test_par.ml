(* The pool's contract is determinism: for any jobs count, [map] is
   [List.map], metric totals match the sequential run, and everything
   built on the pool (sweeps, replicated simulation) renders to identical
   bytes. These tests run the same work at -j1 and -j4 and require exact
   agreement; on a single-core host the domains merely time-slice, which
   still exercises every code path. *)

module Pool = Tpan_par.Pool
module Metrics = Tpan_obs.Metrics
module Q = Tpan_mathkit.Q
module Sim = Tpan_sim.Simulator
module Sweep = Tpan_perf.Sweep
module Models = Tpan.Models

let test_map_matches_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x * 7919) mod 1009 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map -j%d" jobs)
        expected
        (Pool.map ~jobs f xs))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "single" [ 9 ] (Pool.map ~jobs:4 (fun x -> x * 3) [ 3 ])

let test_map_reraises_first_error () =
  let f x = if x mod 3 = 0 then failwith (Printf.sprintf "boom %d" x) else x in
  let got =
    try
      ignore (Pool.map ~jobs:4 f [ 1; 2; 3; 4; 5; 6 ]);
      "no exception"
    with Failure msg -> msg
  in
  (* 3 is the first failing input in order, even if task 6 fails earlier
     in wall-clock time *)
  Alcotest.(check string) "first failure by input order" "boom 3" got

let test_try_map_captures_errors () =
  let f x = if x mod 2 = 0 then raise Exit else x * 10 in
  let results = Pool.try_map ~jobs:4 f [ 1; 2; 3; 4; 5 ] in
  let describe = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error (e : Pool.error) -> Printf.sprintf "err:%d" e.index
  in
  Alcotest.(check (list string))
    "errors land in their slots"
    [ "ok:10"; "err:1"; "ok:30"; "err:3"; "ok:50" ]
    (List.map describe results);
  List.iter
    (fun r ->
      match r with
      | Error (e : Pool.error) -> Alcotest.(check bool) "exn kept" true (e.exn = Exit)
      | Ok _ -> ())
    results

let test_nested_map_runs_sequentially () =
  let xs = List.init 8 (fun i -> i) in
  (* Alcotest is not domain-safe, so the tasks only record what they saw
     and the assertions run after the join *)
  let result =
    Pool.map ~jobs:4
      (fun x ->
        (* nested call must not spawn further domains — and must still
           be correct *)
        let inner = Pool.map ~jobs:4 (fun y -> x + y) xs in
        (List.fold_left ( + ) 0 inner, Pool.in_worker ()))
      xs
  in
  let expected = List.map (fun x -> List.fold_left (fun a y -> a + x + y) 0 xs) xs in
  Alcotest.(check (list int)) "nested results" expected (List.map fst result);
  Alcotest.(check bool) "inner calls are in-worker" true (List.for_all snd result)

let test_metrics_aggregation () =
  let c = Metrics.counter "test.par.increments" in
  let h = Metrics.histogram "test.par.obs" in
  Metrics.Counter.reset c;
  Metrics.Histogram.reset h;
  let work x =
    for _ = 1 to x do
      Metrics.Counter.incr c
    done;
    Metrics.Histogram.observe h (float_of_int x);
    x
  in
  let xs = List.init 50 (fun i -> i + 1) in
  ignore (Pool.map ~jobs:4 work xs);
  let expected_total = List.fold_left ( + ) 0 xs in
  Alcotest.(check int) "counter deltas sum at join" expected_total (Metrics.Counter.value c);
  Alcotest.(check int) "histogram observations all merged" 50 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9))
    "histogram sum merged"
    (float_of_int expected_total)
    (Metrics.Histogram.sum h)

let stopwait () =
  Tpan_protocols.Stopwait.concrete Tpan_protocols.Stopwait.paper_params

let test_run_many_matches_replicate () =
  let tpn = stopwait () in
  let horizon = Q.of_int 50_000 in
  let t7 = Tpan_petri.Net.trans_of_name (Tpan_core.Tpn.net tpn) "t7" in
  let output s = Sim.throughput s t7 in
  let seq = Sim.replicate ~seed:7 ~runs:6 ~horizon tpn output in
  List.iter
    (fun jobs ->
      let par = Sim.run_many ~seed:7 ~jobs ~runs:6 ~horizon tpn output in
      (* bit-identical: same seeds, same in-order Welford fold *)
      Alcotest.(check bool)
        (Printf.sprintf "mean identical at -j%d" jobs)
        true
        (Float.equal seq.Sim.mean par.Sim.mean);
      Alcotest.(check bool)
        (Printf.sprintf "std_error identical at -j%d" jobs)
        true
        (Float.equal seq.Sim.std_error par.Sim.std_error))
    [ 1; 2; 4 ]

(* Property: the replication mean converges to a long single run — both
   estimate the same steady-state throughput. *)
let test_run_many_converges () =
  let tpn = stopwait () in
  let t7 = Tpan_petri.Net.trans_of_name (Tpan_core.Tpn.net tpn) "t7" in
  let long = Sim.run ~seed:11 ~horizon:(Q.of_int 400_000) tpn in
  let est =
    Sim.run_many ~seed:11 ~jobs:4 ~runs:8 ~horizon:(Q.of_int 100_000) tpn (fun s ->
        Sim.throughput s t7)
  in
  let reference = Sim.throughput long t7 in
  Alcotest.(check bool)
    (Printf.sprintf "replication mean %.6g within 10%% of long-run %.6g" est.Sim.mean
       reference)
    true
    (Float.abs (est.Sim.mean -. reference) /. reference < 0.1)

let test_sweep_json_deterministic () =
  let m = Option.get (Models.find "stopwait") in
  let axes =
    match Sweep.parse_axis "timeout=250..1000:6" with
    | Ok a -> [ a ]
    | Error msg -> Alcotest.fail msg
  in
  let render jobs =
    Tpan_obs.Jsonv.to_string
      (Tpan_obs.Jsonv.Obj
         (Sweep.fields
            (Sweep.over_tpn ~jobs ~make:m.Models.make ~throughputs:m.Models.deliveries axes)))
  in
  let j1 = render 1 in
  Alcotest.(check bool) "non-trivial table" true (String.length j1 > 100);
  Alcotest.(check string) "sweep JSON byte-identical -j1 vs -j4" j1 (render 4)

let test_sweep_captures_bad_points () =
  let m = Option.get (Models.find "stopwait") in
  (* timeouts below the round trip make the model unsupported: those rows
     must carry errors while the valid rows keep their values *)
  let axes =
    match Sweep.parse_axis "timeout=100..1000:2" with
    | Ok a -> [ a ]
    | Error msg -> Alcotest.fail msg
  in
  let t = Sweep.over_tpn ~jobs:4 ~make:m.Models.make ~throughputs:m.Models.deliveries axes in
  match t.Sweep.rows with
  | [ bad; good ] ->
    Alcotest.(check bool) "low timeout errors" true (bad.Sweep.error <> None);
    Alcotest.(check bool) "high timeout succeeds" true (good.Sweep.error = None);
    Alcotest.(check bool) "good row has values" true (good.Sweep.values <> [])
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows))

let test_parse_axis () =
  (match Sweep.parse_axis "timeout=80..200:8" with
   | Ok a ->
     Alcotest.(check string) "name" "timeout" a.Sweep.name;
     Alcotest.(check int) "steps" 8 a.Sweep.steps;
     Alcotest.(check bool) "lo" true (Q.equal a.Sweep.lo (Q.of_int 80));
     Alcotest.(check bool) "hi" true (Q.equal a.Sweep.hi (Q.of_int 200))
   | Error msg -> Alcotest.fail msg);
  (match Sweep.parse_axis "E(t3)=0.5..1.5:3" with
   | Ok a -> Alcotest.(check string) "symbol axis name" "E(t3)" a.Sweep.name
   | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Sweep.parse_axis bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ "timeout"; "timeout=80..200"; "timeout=200..80:5"; "=80..200:3"; "timeout=80..200:0" ]

let test_grid_row_major () =
  let axis name lo hi steps =
    { Sweep.name; lo = Q.of_int lo; hi = Q.of_int hi; steps }
  in
  let pts = Sweep.points [ axis "a" 0 1 2; axis "b" 0 2 3 ] in
  let render pt =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Q.to_string v)) pt)
  in
  Alcotest.(check (list string))
    "last axis varies fastest"
    [ "a=0,b=0"; "a=0,b=1"; "a=0,b=2"; "a=1,b=0"; "a=1,b=1"; "a=1,b=2" ]
    (List.map render pts)

let test_facade_analysis () =
  (match Tpan.Analysis.load (Tpan.Analysis.Builtin "stopwait") with
   | Error e -> Alcotest.fail (Tpan.Error.to_string e)
   | Ok tpn -> (
     match Tpan.Artifact.analysis ~throughputs:[ "t7" ] (Tpan.Canonical.of_tpn tpn) with
     | Error e -> Alcotest.fail (Tpan.Error.to_string e)
     | Ok r ->
       Alcotest.(check int) "states" 18 r.Tpan.Analysis.states;
       let thr = List.assoc "t7" r.Tpan.Analysis.throughputs in
       (* the paper's headline number: ~0.002851 messages/ms *)
       Alcotest.(check bool) "throughput value" true
         (Float.abs (Q.to_float thr -. 0.002851) < 1e-5)));
  (match Tpan.Analysis.load (Tpan.Analysis.Builtin "nonsense") with
   | Error (Tpan.Error.Invalid_input _) -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Tpan.Error.to_string e)
   | Ok _ -> Alcotest.fail "loaded a nonexistent model");
  match Tpan.Analysis.load ~params:[ ("no_such_param", Q.one) ] (Tpan.Analysis.Builtin "stopwait") with
  | Error (Tpan.Error.Invalid_input _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Tpan.Error.to_string e)
  | Ok _ -> Alcotest.fail "accepted an unknown parameter"

let test_error_exit_codes () =
  let open Tpan.Error in
  Alcotest.(check int) "unsupported" 2 (exit_code (Unsupported "x"));
  Alcotest.(check int) "parse" 2 (exit_code (Parse_error { line = 1; col = 1; msg = "x" }));
  Alcotest.(check int) "insufficient" 3
    (exit_code (Insufficient { lhs = "a"; rhs = "b"; hint = "h" }));
  Alcotest.(check int) "unsolvable" 4 (exit_code (Unsolvable "x"));
  Alcotest.(check int) "state limit" 5 (exit_code (State_limit 7));
  Alcotest.(check int) "deadline" 6 (exit_code (Deadline_exceeded "x"));
  (* classification *)
  (match of_exn (Tpan_core.Tpn.Unsupported "nope") with
   | Some (Unsupported "nope") -> ()
   | _ -> Alcotest.fail "Tpn.Unsupported not classified");
  (match of_exn (Tpan_petri.Reachability.State_limit 9) with
   | Some (State_limit 9) -> ()
   | _ -> Alcotest.fail "State_limit not classified");
  match of_exn Exit with
  | None -> ()
  | Some e -> Alcotest.fail ("classified a foreign exception as " ^ to_string e)

let suite =
  ( "par",
    [
      Alcotest.test_case "map matches List.map at any -j" `Quick test_map_matches_sequential;
      Alcotest.test_case "map edge cases" `Quick test_map_empty_and_single;
      Alcotest.test_case "map re-raises first error by input order" `Quick
        test_map_reraises_first_error;
      Alcotest.test_case "try_map captures per-task errors" `Quick test_try_map_captures_errors;
      Alcotest.test_case "nested map runs sequentially" `Quick test_nested_map_runs_sequentially;
      Alcotest.test_case "metrics aggregate deterministically" `Quick test_metrics_aggregation;
      Alcotest.test_case "run_many is bit-identical to replicate" `Quick
        test_run_many_matches_replicate;
      Alcotest.test_case "run_many converges to a long run" `Quick test_run_many_converges;
      Alcotest.test_case "sweep JSON identical across -j" `Quick test_sweep_json_deterministic;
      Alcotest.test_case "sweep captures bad points per row" `Quick test_sweep_captures_bad_points;
      Alcotest.test_case "parse_axis" `Quick test_parse_axis;
      Alcotest.test_case "grid is row-major" `Quick test_grid_row_major;
      Alcotest.test_case "facade analysis" `Quick test_facade_analysis;
      Alcotest.test_case "error values and exit codes" `Quick test_error_exit_codes;
    ] )
