(* End-to-end tests of the tpan binary: run real subcommands on real .tpn
   files and check the headline numbers appear. The test executable runs
   from _build/default/test, with the binary and example nets declared as
   dune deps. *)

let tpan = "../bin/tpan.exe"
let stopwait_tpn = "../examples/nets/stopwait.tpn"
let symbolic_tpn = "../examples/nets/stopwait_symbolic.tpn"

let run_capture args =
  let tmp = Filename.temp_file "tpan_cli" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" tpan args tmp in
  let rc = Sys.command cmd in
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  (rc, out)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_run name args needles =
  let rc, out = run_capture args in
  Alcotest.(check int) (name ^ ": exit code") 0 rc;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "%s: output mentions %S" name needle) true
        (contains out needle))
    needles

let write_temp_net src =
  let path = Filename.temp_file "tpan_cli" ".tpn" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  path

(* [d] waits on a place that is never marked: it never completes, and
   its period is infinite rather than a division by zero *)
let dead_tpn =
  {|net dead
place a init 1
place b
place never
trans x { in a; out b; fire 2; freq 1 }
trans y { in a; out b; fire 3; freq 1 }
trans z { in b; out a; fire 1 }
trans d { in never; out a; fire 1 }
|}

let test_analyze_file () =
  check_run "analyze" (Printf.sprintf "analyze %s -t t7" stopwait_tpn)
    [ "18 states"; "decision nodes: 3, 11"; "0.002851"; "350.649307" ];
  let dead = write_temp_net dead_tpn in
  check_run "analyze dead" (Printf.sprintf "analyze %s -t x -t d" dead)
    [ "throughput(d): 0 per time unit (period inf)" ];
  Sys.remove dead

let test_symbolic_file () =
  check_run "symbolic" (Printf.sprintf "symbolic %s -t t7" symbolic_tpn)
    [ "18 states"; "constraints used to order minima"; "throughput(t7)"; "f(t8)" ]

let test_builtin_models () =
  check_run "show" "show -m abp" [ "net abp"; "conflict set" ];
  check_run "latency" "latency -m stopwait -e t6" [ "173.936842" ];
  check_run "check" "check -m stopwait" [ "consistent"; "safe (1-bounded)" ];
  check_run "report" "report -m channel" [ "structure"; "steady state" ]

let test_simulate () =
  check_run "simulate" "simulate -m stopwait -t t7 --horizon 100000 --seed 4"
    [ "throughput(t7)" ]

let test_dot () =
  check_run "dot net" (Printf.sprintf "dot %s -g net" stopwait_tpn) [ "digraph" ];
  check_run "dot dg" "dot -m stopwait -g dg" [ "diamond"; "0.05 / 1002" ]

let test_sweep () =
  (* symbolic path: closed form derived once, evaluated on the grid *)
  check_run "sweep symbolic"
    ("sweep -m stopwait-sym -t t7 --vary 'E(t3)=250..1000:4' "
    ^ "-p 'F(t1)=1' -p 'F(t2)=1' -p 'F(t3)=1' -p 'F(t4)=106.7' -p 'F(t5)=106.7' "
    ^ "-p 'F(t6)=13.5' -p 'F(t7)=13.5' -p 'F(t8)=106.7' -p 'F(t9)=106.7' "
    ^ "-p 'f(t4)=0.05' -p 'f(t5)=0.95' -p 'f(t8)=0.95' -p 'f(t9)=0.05'")
    [ "E(t3)"; "0.003708"; "0.002851" ];
  (* concrete path: per-point rebuild + full analysis on the pool; the
     symbolic closed form above must agree point for point (0.003708 and
     0.002851, exact in --json) *)
  check_run "sweep concrete"
    "sweep -m stopwait --vary timeout=250..1000:4 -j 2 --json"
    [ "\"schema\": 2"; "\"exit_code\": 0"; "\"1805/486672\""; "\"1805/632922\"" ]

let test_json_envelope () =
  (* schema 2 (default): one envelope around every machine document *)
  let rc, out = run_capture "analyze -m stopwait -t t7 --json" in
  Alcotest.(check int) "analyze --json exits 0" 0 rc;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "schema-2 doc has %S" needle) true
        (contains out needle))
    [ "\"schema\": 2"; "\"trace_id\""; "\"net_hash\""; "\"exit_code\": 0"; "0.002851" ];
  (match Tpan_obs.Jsonv.of_string out with
   | Ok doc ->
     Alcotest.(check bool) "net_hash is a string" true
       (match Tpan_obs.Jsonv.member "net_hash" doc with
        | Some (Tpan_obs.Jsonv.Str h) -> String.length h = 32
        | _ -> false)
   | Error e -> Alcotest.failf "schema-2 output does not parse: %s" e);
  (* same envelope over simulation summaries *)
  let rc2, out2 =
    run_capture "simulate -m stopwait -t t7 --horizon 10000 --seed 4 --json"
  in
  Alcotest.(check int) "simulate --json exits 0" 0 rc2;
  Alcotest.(check bool) "simulation envelope" true
    (contains out2 "\"kind\": \"simulation\"" && contains out2 "\"schema\": 2")

(* The schema-2 documents byte for byte, trace id masked: any change to
   the envelope or a payload shape shows up here as a diff. *)
let mask_trace_id out =
  let key = "\"trace_id\": \"" in
  let n = String.length out and k = String.length key in
  let rec find i =
    if i + k > n then None else if String.sub out i k = key then Some i else find (i + 1)
  in
  match find 0 with
  | None -> out
  | Some i ->
    let close = String.index_from out (i + k) '"' in
    String.sub out 0 (i + k) ^ "X" ^ String.sub out close (n - close)

let pinned_docs =
  [
    ( "analyze -m stopwait -t t7 --json",
      {|{
  "schema": 2,
  "kind": "analysis",
  "trace_id": "X",
  "net_hash": "3c4bdf1bb937a18cf4e83bad49928803",
  "exit_code": 0,
  "model": "stopwait",
  "states": 18,
  "edges": 20,
  "decision_nodes": 2,
  "mean_cycle_time": 316.461,
  "throughputs": {
    "t7": 0.002851
  }
}
|} );
    ( "simulate -m stopwait -t t7 --horizon 10000 --seed 4 --json",
      {|{
  "schema": 2,
  "kind": "simulation",
  "trace_id": "X",
  "net_hash": "3c4bdf1bb937a18cf4e83bad49928803",
  "exit_code": 0,
  "horizon": 10000,
  "seed": 4,
  "runs": 1,
  "throughputs": {
    "t7": {
      "mean": 0.0023999999999999998,
      "deadlocked": false
    }
  }
}
|} );
    ( "sweep -m stopwait --vary timeout=250..500:2 --json",
      {|{
  "schema": 2,
  "kind": "sweep",
  "trace_id": "X",
  "net_hash": "3c4bdf1bb937a18cf4e83bad49928803",
  "exit_code": 0,
  "axes": [
    {
      "name": "timeout",
      "lo": "250",
      "hi": "500",
      "steps": 2
    }
  ],
  "columns": [
    "thr(t7)",
    "mean_cycle_time"
  ],
  "rows": [
    {
      "point": {
        "timeout": "250"
      },
      "values": {
        "thr(t7)": "1805/486672",
        "mean_cycle_time": "30417/125"
      },
      "error": null
    },
    {
      "point": {
        "timeout": "500"
      },
      "values": {
        "thr(t7)": "1805/535422",
        "mean_cycle_time": "267711/1000"
      },
      "error": null
    }
  ]
}
|} );
  ]

let test_json_pinned () =
  List.iter
    (fun (args, expected) ->
      let rc, out = run_capture args in
      Alcotest.(check int) (args ^ " exits 0") 0 rc;
      Alcotest.(check string) args expected (mask_trace_id out))
    pinned_docs;
  (* the same sweep posted to the server answers the same bytes *)
  let r =
    Tpan_serve.Serve.handle Tpan_serve.Serve.default_config ~meth:"POST" ~target:"/sweep"
      ~body:{|{"model":"stopwait","axes":["timeout=250..500:2"]}|}
  in
  Alcotest.(check string) "POST /sweep answers the pinned sweep"
    (List.assoc "sweep -m stopwait --vary timeout=250..500:2 --json" pinned_docs)
    (mask_trace_id r.Tpan_serve.Serve.body)

let test_sweep_determinism () =
  let args j =
    Printf.sprintf "sweep -m stopwait --vary timeout=80..200:8 -j %d --json" j
  in
  let rc1, out1 = run_capture (args 1) in
  let rc4, out4 = run_capture (args 4) in
  Alcotest.(check int) "sweep -j1 exits 0" 0 rc1;
  Alcotest.(check int) "sweep -j4 exits 0" 0 rc4;
  (* each process mints its own trace id; everything else is deterministic *)
  let strip_trace out =
    String.split_on_char '\n' out
    |> List.filter (fun line -> not (contains line "\"trace_id\""))
    |> String.concat "\n"
  in
  Alcotest.(check string) "sweep --json is byte-identical for -j1 and -j4"
    (strip_trace out1) (strip_trace out4)

let test_profile () =
  check_run "profile" (Printf.sprintf "profile %s" stopwait_tpn)
    [
      "profile";
      "TRG build";
      "oracle queries";
      "FM eliminations";
      "decision-graph collapse";
      "rate solve";
      "span tree";
    ];
  check_run "profile symbolic" (Printf.sprintf "profile %s" symbolic_tpn)
    [ "symbolic pipeline"; "TRG build"; "oracle queries" ]

let test_trace_flag () =
  let trace = Filename.temp_file "tpan_cli" ".ndjson" in
  let rc, _ = run_capture (Printf.sprintf "analyze %s -t t7 --trace %s" stopwait_tpn trace) in
  Alcotest.(check int) "analyze --trace exits 0" 0 rc;
  let ic = open_in trace in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove trace;
  Alcotest.(check bool) "trace file has events" true (List.length !lines > 0);
  List.iter
    (fun line ->
      match Tpan_obs.Trace.parse_line line with
      | Some e -> Alcotest.(check bool) "event has a name" true (String.length e.name > 0)
      | None -> Alcotest.fail (Printf.sprintf "unparseable trace line: %s" line))
    !lines;
  let names =
    List.filter_map
      (fun l -> Option.map (fun (e : Tpan_obs.Trace.event) -> e.name) (Tpan_obs.Trace.parse_line l))
      !lines
  in
  Alcotest.(check bool) "trace covers the TRG build" true (List.mem "concrete.build" names)

let test_metrics_flag () =
  check_run "metrics" (Printf.sprintf "analyze %s -t t7 --metrics" stopwait_tpn)
    [ "metric"; "core.semantics.states_interned"; "perf.rates.solves" ]

let test_version_cmd () =
  let rc, out = run_capture "version" in
  Alcotest.(check int) "version exits 0" 0 rc;
  Alcotest.(check string) "prints the facade version" Tpan.Version.string (String.trim out)

let test_metrics_cmd () =
  let rc, out = run_capture "metrics -m stopwait --metrics-format=openmetrics" in
  Alcotest.(check int) "metrics exits 0" 0 rc;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "openmetrics mentions %S" needle) true
        (contains out needle))
    [
      "# TYPE tpan_core_semantics_states_interned counter";
      "tpan_core_semantics_states_interned_total 18";
      "# EOF";
    ];
  (* counters must carry the _total suffix; the raw dotted names must not
     leak into the exposition *)
  Alcotest.(check bool) "names are sanitized" false (contains out "core.semantics");
  let rc_j, out_j = run_capture "metrics -m stopwait --metrics-format=json" in
  Alcotest.(check int) "metrics --metrics-format=json exits 0" 0 rc_j;
  Alcotest.(check bool) "json format has kind fields" true
    (contains out_j "\"kind\": \"counter\"")

let test_ledger_and_runs () =
  let dir = Filename.temp_file "tpan_cli_ledger" "" in
  Sys.remove dir;
  let rc, _ =
    run_capture (Printf.sprintf "analyze -m stopwait -t t7 --ledger-dir %s" dir)
  in
  Alcotest.(check int) "analyze --ledger-dir exits 0" 0 rc;
  let rc2, _ = run_capture (Printf.sprintf "sweep -m stopwait --vary timeout=250..500:2 --ledger-dir %s" dir) in
  Alcotest.(check int) "sweep --ledger-dir exits 0" 0 rc2;
  let rc3, out = run_capture (Printf.sprintf "runs --dir %s" dir) in
  Alcotest.(check int) "runs exits 0" 0 rc3;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "runs table mentions %S" needle) true
        (contains out needle))
    [ "subcommand"; "analyze"; "sweep"; "stopwait"; "2 of 2 run(s)" ];
  let rc4, out4 = run_capture (Printf.sprintf "runs --dir %s --last 1 --json" dir) in
  Alcotest.(check int) "runs --json exits 0" 0 rc4;
  Alcotest.(check bool) "--last 1 keeps the newest record" true
    (contains out4 "\"subcommand\": \"sweep\"" && not (contains out4 "\"analyze\""));
  Alcotest.(check bool) "records carry stage timings" true
    (contains out4 "\"stage\": \"concrete.build\"");
  Alcotest.(check bool) "records carry the build version" true
    (contains out4 (Printf.sprintf "\"version\": \"%s\"" Tpan.Version.string))

let write_bench_json path figures =
  let oc = open_out path in
  output_string oc "{\"figures\": [";
  List.iteri
    (fun i (name, seconds, words) ->
      if i > 0 then output_string oc ", ";
      Printf.fprintf oc
        "{\"name\": \"%s\", \"seconds\": %f, \"gc\": {\"major_words\": %f}}" name seconds
        words)
    figures;
  output_string oc "]}";
  close_out oc

let test_bench_diff_cmd () =
  let base = Filename.temp_file "tpan_bench_base" ".json" in
  let cur = Filename.temp_file "tpan_bench_cur" ".json" in
  write_bench_json base [ ("FIG4", 1.0, 1e6); ("THRPT", 0.5, 5e5) ];
  (* identical numbers: clean exit *)
  write_bench_json cur [ ("FIG4", 1.0, 1e6); ("THRPT", 0.5, 5e5) ];
  let rc, out = run_capture (Printf.sprintf "bench-diff %s %s" base cur) in
  Alcotest.(check int) "no regression exits 0" 0 rc;
  Alcotest.(check bool) "reports ok" true (contains out "ok");
  (* synthetic 2x slowdown: non-zero exit, FAIL in the report *)
  write_bench_json cur [ ("FIG4", 2.2, 1e6); ("THRPT", 0.5, 5e5) ];
  let rc2, out2 = run_capture (Printf.sprintf "bench-diff %s %s" base cur) in
  Alcotest.(check bool) "2x slowdown exits non-zero" true (rc2 <> 0);
  Alcotest.(check bool) "report says FAIL" true (contains out2 "FAIL");
  (* --warn-only reports but never gates *)
  let rc3, _ = run_capture (Printf.sprintf "bench-diff --warn-only %s %s" base cur) in
  Alcotest.(check int) "--warn-only exits 0 despite the failure" 0 rc3;
  let rc4, out4 = run_capture (Printf.sprintf "bench-diff --json %s %s" base cur) in
  Alcotest.(check bool) "--json also gates" true (rc4 <> 0);
  Alcotest.(check bool) "--json carries verdicts" true (contains out4 "\"verdict\"");
  Sys.remove base;
  Sys.remove cur

let test_multilane_trace () =
  (* the acceptance scenario: a parallel sweep's merged trace must carry
     spans from more than one domain lane *)
  let trace = Filename.temp_file "tpan_cli" ".ndjson" in
  let rc, _ =
    run_capture
      (Printf.sprintf "sweep -m stopwait --vary timeout=80..200:8 -j 4 --trace %s" trace)
  in
  Alcotest.(check int) "sweep -j4 --trace exits 0" 0 rc;
  let ic = open_in trace in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove trace;
  let events = List.filter_map Tpan_obs.Trace.parse_line !lines in
  Alcotest.(check bool) "every line parses" true
    (List.length events = List.length !lines);
  let lanes =
    List.sort_uniq compare (List.map (fun (e : Tpan_obs.Trace.event) -> e.lane) events)
  in
  Alcotest.(check bool)
    (Printf.sprintf "spans from more than one lane (got %d)" (List.length lanes))
    true
    (List.length lanes > 1);
  Alcotest.(check bool) "worker spans mark the lanes" true
    (List.exists
       (fun (e : Tpan_obs.Trace.event) -> e.name = "pool.worker" && e.lane > 0)
       events);
  Alcotest.(check bool) "sweep points are traced" true
    (List.exists (fun (e : Tpan_obs.Trace.event) -> e.name = "sweep.point") events)

let test_deadline_flag () =
  let dir = Filename.temp_file "tpan_cli_flight" "" in
  Sys.remove dir;
  let dump = Filename.temp_file "tpan_cli_flight" ".ndjson" in
  Sys.remove dump;
  (* an analysis that would run for minutes: 1e8 time units of simulated
     protocol, replicated — the 200ms deadline must abort it with the
     dedicated exit code, a partial-progress report, and a dump *)
  let rc, out =
    run_capture
      (Printf.sprintf
         "simulate -m stopwait -t t7 --horizon 100000000 --runs 8 --deadline 200ms \
          --dump %s --ledger-dir %s"
         dump dir)
  in
  Alcotest.(check int) "deadline abort exits 6" 6 rc;
  Alcotest.(check bool) "reports the abort" true (contains out "analysis aborted");
  Alcotest.(check bool) "reports partial progress" true (contains out "partial progress");
  Alcotest.(check bool) "counts simulator steps" true (contains out "sim steps");
  (* the dump written at cancellation time must parse and carry the
     cancelling domain's live span stack *)
  (match Tpan_obs.Dump.load dump with
  | Ok frames ->
    let dumps = List.filter (fun f -> f.Tpan_obs.Dump.kind = "dump") frames in
    Alcotest.(check bool) "dump frame recorded" true (dumps <> []);
    List.iter
      (fun f ->
        Alcotest.(check bool) "dump names the deadline" true
          (match f.Tpan_obs.Dump.reason with
          | Some r -> r = "deadline of 0.2s exceeded"
          | None -> false);
        Alcotest.(check bool) "dump has a span stack" true
          (List.exists (fun (_, stack) -> List.mem "sim.run" stack) f.Tpan_obs.Dump.spans);
        Alcotest.(check bool) "dump has a trace id" true (f.Tpan_obs.Dump.trace_id <> None))
      dumps
  | Error msg -> Alcotest.fail msg);
  (* the ledger row for the aborted run records exit code 6 and the
     request's trace id *)
  let rc2, out2 = run_capture (Printf.sprintf "runs --dir %s --json" dir) in
  Alcotest.(check int) "runs --json exits 0" 0 rc2;
  Alcotest.(check bool) "ledger records exit code 6" true
    (contains out2 "\"exit_code\": 6");
  Alcotest.(check bool) "ledger records the trace id" true
    (contains out2 "\"trace_id\"");
  (* [tpan top] renders the dump *)
  let rc3, out3 = run_capture (Printf.sprintf "top %s" dump) in
  Alcotest.(check int) "top exits 0" 0 rc3;
  Alcotest.(check bool) "top shows the trigger" true (contains out3 "deadline");
  Alcotest.(check bool) "top shows the lane" true (contains out3 "lane 0");
  Sys.remove dump

let test_runs_stats () =
  let dir = Filename.temp_file "tpan_cli_stats" "" in
  Sys.remove dir;
  let rc, _ =
    run_capture (Printf.sprintf "analyze -m stopwait -t t7 --ledger-dir %s" dir)
  in
  Alcotest.(check int) "analyze exits 0" 0 rc;
  let rc2, _ =
    run_capture (Printf.sprintf "analyze -m stopwait -t t7 --ledger-dir %s" dir)
  in
  Alcotest.(check int) "second analyze exits 0" 0 rc2;
  let rc3, out = run_capture (Printf.sprintf "runs --stats --dir %s" dir) in
  Alcotest.(check int) "runs --stats exits 0" 0 rc3;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "stats mention %S" needle) true
        (contains out needle))
    [
      "per-subcommand wall time";
      "per-stage wall time";
      "analyze";
      "concrete.build";
      "exit codes";
      "0: 2 run(s)";
    ];
  let rc4, out4 = run_capture (Printf.sprintf "runs --stats --json --dir %s" dir) in
  Alcotest.(check int) "runs --stats --json exits 0" 0 rc4;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "stats json mentions %S" needle) true
        (contains out4 needle))
    [ "\"commands\""; "\"stages\""; "\"exit_codes\""; "\"p95_seconds\"" ]

let test_fuzz_deadline () =
  (* a per-case budget far below what any case needs: every case must be
     recorded as timed out and skipped, and the fuzz loop itself must
     survive to report them (exit 0 — timeouts are not disagreements) *)
  let rc, out = run_capture "check --random 2 --quick --deadline 1ms" in
  Alcotest.(check int) "fuzz with timeouts exits 0" 0 rc;
  Alcotest.(check bool) "cases recorded as timed out" true (contains out "2 timed out");
  let rc2, out2 = run_capture "check --random 2 --quick --deadline 1ms --json" in
  Alcotest.(check int) "json fuzz exits 0" 0 rc2;
  Alcotest.(check bool) "json counts timeouts" true (contains out2 "\"timed_out\": 2")

let test_error_paths () =
  let rc, out = run_capture "analyze -m nonsense" in
  Alcotest.(check bool) "unknown model fails" true (rc <> 0);
  Alcotest.(check bool) "lists available models" true (contains out "stopwait");
  let rc2, out2 = run_capture "analyze /nonexistent.tpn" in
  Alcotest.(check bool) "missing file fails" true (rc2 <> 0);
  ignore out2;
  (* an unknown transition name is an input error (exit 2), never an
     uncaught exception *)
  List.iter
    (fun args ->
      let rc, out = run_capture args in
      Alcotest.(check int) (args ^ ": exit code") 2 rc;
      Alcotest.(check bool)
        (args ^ ": names the transition")
        true
        (contains out {|unknown transition "nosuch"|}))
    [
      "analyze -m stopwait -t nosuch";
      "analyze -m stopwait -t nosuch --json";
      "symbolic -m stopwait-sym -t nosuch";
      "latency -m stopwait -e nosuch";
      "report -m stopwait -e nosuch";
    ];
  let rc3, out3 = run_capture "sweep -m stopwait --vary timeout=250..1000:2 -t nosuch" in
  Alcotest.(check int) "sweep keeps per-row errors" 0 rc3;
  Alcotest.(check bool) "sweep rows name the transition" true
    (contains out3 {|error: unknown transition "nosuch"|})

(* A sweep refuses what it would otherwise ignore or fail row by row,
   before evaluating any point (both used to exit 0): an axis naming no
   symbol of the net, and a grid leaving a variable of the closed form
   unbound, which fails with /eval's message. *)
let test_sweep_refusals () =
  List.iter
    (fun (args, needle) ->
      let rc, out = run_capture args in
      Alcotest.(check int) (args ^ ": exit code") 2 rc;
      Alcotest.(check bool) (Printf.sprintf "%s: names %S" args needle) true (contains out needle))
    [
      ("sweep -m stopwait-sym -t t7 --vary nosuchvar=1..2:2", {|axis "nosuchvar"|});
      ("sweep -m stopwait --vary nosuchvar=1..2:2", {|no parameter "nosuchvar"|});
      ( "sweep -m stopwait-sym -t t7 --vary 'E(t3)=250..1000:2'",
        "point misses variable bindings: F(t1)" );
    ]

(* Human and --json analyze agree on the exit code when there is no
   steady state: the TRG line stays on stdout, the reason goes to stderr. *)
let test_analyze_no_steady_state () =
  let term = write_temp_net "net term\nplace p init 1\ntrans t { in p; fire 1 }\n" in
  let out_file = Filename.temp_file "tpan_cli" ".out" in
  let err_file = Filename.temp_file "tpan_cli" ".err" in
  let rc = Sys.command (Printf.sprintf "%s analyze %s > %s 2> %s" tpan term out_file err_file) in
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let out = slurp out_file and stderr = slurp err_file in
  Alcotest.(check int) "human exit code" 4 rc;
  Alcotest.(check bool) "TRG line on stdout" true
    (contains out "timed reachability graph: 3 states, 2 edges");
  Alcotest.(check bool) "reason on stderr" true
    (contains stderr "rate equations unsolvable: the system terminates");
  Alcotest.(check bool) "reason not on stdout" false (contains out "steady state");
  let rc_json, _ = run_capture (Printf.sprintf "analyze --json %s" term) in
  Alcotest.(check int) "--json exit code" 4 rc_json;
  Sys.remove term

(* A recurrent cycle that takes no time has no rate per unit time: it is
   refused as unsolvable (exit 4), human and --json alike, instead of
   dividing by its zero mean cycle time; a sweep row of a builtin whose
   delays are all 0 says the same. *)
let zero_cycle_tpn =
  "net zero\nplace a init 1\nplace b\ntrans x { in a; out b; fire 0 }\n\
   trans y { in b; out a; fire 0 }\n"

let zero_cycle_msg = "rate equations unsolvable: the recurrent cycle takes no time"

let test_zero_time_cycle () =
  let zero = write_temp_net zero_cycle_tpn in
  List.iter
    (fun flags ->
      let args = Printf.sprintf "analyze %s -t x%s" zero flags in
      let rc, out = run_capture args in
      Alcotest.(check int) (args ^ ": exit code") 4 rc;
      Alcotest.(check bool) (args ^ ": says the cycle takes no time") true
        (contains out zero_cycle_msg))
    [ ""; " --json" ];
  Sys.remove zero;
  let rc, out =
    run_capture
      ("sweep -m pipeline --csv --vary inject_delay=0..0:1 --vary hop1=0..0:1 \
        --vary hop2=0..0:1 --vary hop3=0..0:1 --vary hop4=0..0:1")
  in
  Alcotest.(check int) "all-zero pipeline sweep: exit code" 0 rc;
  Alcotest.(check bool) "the row's error says the cycle takes no time" true
    (contains out ("0,0,0,0,0,,," ^ zero_cycle_msg))

let suite =
  ( "cli",
    [
      Alcotest.test_case "analyze .tpn file" `Quick test_analyze_file;
      Alcotest.test_case "symbolic .tpn file" `Quick test_symbolic_file;
      Alcotest.test_case "builtin models" `Quick test_builtin_models;
      Alcotest.test_case "simulate" `Quick test_simulate;
      Alcotest.test_case "dot outputs" `Quick test_dot;
      Alcotest.test_case "sweep" `Quick test_sweep;
      Alcotest.test_case "sweep determinism across -j" `Quick test_sweep_determinism;
      Alcotest.test_case "--json schema-2 envelope" `Quick test_json_envelope;
      Alcotest.test_case "--json bytes are pinned" `Quick test_json_pinned;
      Alcotest.test_case "profile" `Quick test_profile;
      Alcotest.test_case "--trace writes NDJSON" `Quick test_trace_flag;
      Alcotest.test_case "--metrics prints table" `Quick test_metrics_flag;
      Alcotest.test_case "error paths" `Quick test_error_paths;
      Alcotest.test_case "version subcommand" `Quick test_version_cmd;
      Alcotest.test_case "metrics subcommand" `Quick test_metrics_cmd;
      Alcotest.test_case "run ledger & runs query" `Quick test_ledger_and_runs;
      Alcotest.test_case "--deadline aborts with dump & ledger row" `Quick
        test_deadline_flag;
      Alcotest.test_case "runs --stats" `Quick test_runs_stats;
      Alcotest.test_case "fuzz per-case deadline" `Quick test_fuzz_deadline;
      Alcotest.test_case "bench-diff gating" `Quick test_bench_diff_cmd;
      Alcotest.test_case "multi-lane trace at -j4" `Quick test_multilane_trace;
      Alcotest.test_case "analyze with no steady state exits 4" `Quick
        test_analyze_no_steady_state;
      Alcotest.test_case "sweep refuses names the net lacks" `Quick test_sweep_refusals;
      Alcotest.test_case "a zero-time cycle exits 4" `Quick test_zero_time_cycle;
    ] )
