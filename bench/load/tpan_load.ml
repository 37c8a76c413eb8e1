(* tpan-load: end-to-end load benchmark for `tpan serve` and the
   `tpan analyze` CLI.

   One single-threaded process drives closed-loop HTTP/1.1 keep-alive
   traffic over loopback at a real `tpan serve --port 0` (default
   flags, a fresh directory as its cwd and TPAN_DIR, one server per
   repeat), or spawns `tpan analyze` children one at a time. Every
   answer is checked; any failed check makes the run exit 1. With
   --trace 1 it instead reports per-layer metrics from one socket repeat
   and an in-process replay (see replay.ml).

   Build and run from the root of the repository:

     dune build bin/tpan.exe bench/load/tpan_load.exe
     ./_build/default/bench/load/tpan_load.exe --seed 1 --json bench-load.json

   See bench/load/README.md for the workloads, metrics and bounds. *)

module J = Tpan_obs.Jsonv
module I = Inputs

(* ----- workload sizing -----

   Request counts are fixed per workload: a timed phase sends
   [rate * seconds / repeats] requests, where [rate] is the throughput
   measured at the commit that introduced the benchmark, so a repeat
   lasts about [seconds / repeats] there. A faster or slower program
   then does the same work in less or more time. [replay] is the number
   of requests the traced replay sends through [Serve.handle]. *)

type spec = { rate : float; replay : int }

let spec = function
  | "eval-hot" -> { rate = 5500.; replay = 2000 }
  | "eval-fresh" -> { rate = 860.; replay = 2000 }
  | "sweep" -> { rate = 300.; replay = 300 }
  | "derive-cold" -> { rate = 235.; replay = 300 }
  | "analyze-cli" -> { rate = 235.; replay = 1000 }
  | w -> invalid_arg w

let repeats = 3
let check_every = 16 (* one response in 16 is checked against the in-process answer *)

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  json : string option;
  spans : string;
}

let timed_count o name =
  let n = (spec name).rate *. o.seconds /. float_of_int repeats in
  if o.smoke then max 20 (int_of_float (n /. 20.)) else max 1000 (int_of_float n)

let warmup_count o name = max 1 (timed_count o name / 20)
let replay_count o name = if o.smoke then max 10 ((spec name).replay / 20) else (spec name).replay

let tpan_exe () =
  let exe = Filename.concat (Sys.getcwd ()) "_build/default/bin/tpan.exe" in
  if not (Sys.file_exists exe) then
    failwith "_build/default/bin/tpan.exe is missing: run `dune build bin/tpan.exe bench/load/tpan_load.exe` first";
  exe

(* ----- statistics ----- *)

let median l =
  match List.sort compare l with [] -> nan | s -> List.nth s (List.length s / 2)

(* Nearest rank: the smallest sample with at least [p] of the samples
   at or below it. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

(* ----- one repeat ----- *)

type repeat = {
  setup_s : float;
  throughput : float;
  p50_ms : float;
  p99_ms : float;
  cpu_ms_per_req : float;
  rss_mb : float;
  attempted : int;
  failed : int;
  reconnects : int;
  ledger_bytes_per_req : float;
  response_bytes : float;
  cache : (string * float) list;  (** deltas of the cache counters over the timed phase *)
  problems : string list;
}

(* Collects what one timed phase saw. *)
type tally = {
  lat : float Queue.t;
  mutable attempted_ : int;
  mutable failed_ : int;
  mutable bytes : int;
  mutable problems_ : string list;
  mutable kept : (int * string) list;  (** responses to check against the in-process answer *)
}

let tally () = { lat = Queue.create (); attempted_ = 0; failed_ = 0; bytes = 0; problems_ = []; kept = [] }

let problem t msg =
  t.failed_ <- t.failed_ + 1;
  if List.length t.problems_ < 5 then t.problems_ <- msg :: t.problems_

let raw_request item = Http.request ~meth:"POST" ~path:(I.path_of item) ~body:(I.body_of item)

(* Send items [lo, hi) over the workload's connections. *)
let drive ~port (w : I.t) ~lo ~hi tally =
  let i = ref lo in
  let next () =
    if !i >= hi then None
    else begin
      let k = !i in
      incr i;
      Some (k, raw_request w.items.(k))
    end
  in
  Http.closed_loop ~port ~conns:w.conns ~next ~on_result:(fun k result lat ->
      tally.attempted_ <- tally.attempted_ + 1;
      match result with
      | Ok r when r.Http.status = 200 ->
        Queue.add lat tally.lat;
        tally.bytes <- tally.bytes + String.length r.body;
        if k mod check_every = 0 then tally.kept <- (k, r.body) :: tally.kept
      | Ok r -> problem tally (Printf.sprintf "request %d answered %d: %s" k r.status (String.trim r.body))
      | Error msg -> problem tally (Printf.sprintf "request %d: %s" k msg))

let verify_kept (w : I.t) tally =
  List.iter
    (fun (k, body) ->
      match I.verify w.items.(k) body with
      | Ok () -> ()
      | Error msg -> problem tally (Printf.sprintf "request %d: wrong answer: %s" k msg))
    tally.kept;
  tally.kept <- []

(* The cache counters and byte gauges of /metrics. *)
let scrape port =
  let sync = Http.Sync.create port in
  let r = Http.Sync.call sync ~meth:"GET" ~path:"/metrics" ~body:"" in
  Http.Sync.close sync;
  if r.status <> 200 then failwith "GET /metrics failed";
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.starts_with ~prefix:"tpan_cache_" name ->
        Option.map (fun f -> (name, f)) (float_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' r.body)

let cache_kinds = [ "eval"; "closed_form"; "symbolic"; "trg"; "report" ]

let cache_delta before after =
  let get l k = Option.value (List.assoc_opt k l) ~default:0. in
  let d k = get after k -. get before k in
  List.concat_map
    (fun kind ->
      let hits = d (Printf.sprintf "tpan_cache_%s_hits_total" kind)
      and misses = d (Printf.sprintf "tpan_cache_%s_misses_total" kind) in
      [ (kind ^ ".hits", hits); (kind ^ ".misses", misses) ])
    cache_kinds
  @ [ ("bytes", List.fold_left (fun acc kind -> acc +. d (Printf.sprintf "tpan_cache_%s_bytes" kind)) 0. cache_kinds) ]

let hit_ratio cache kind =
  let get k = Option.value (List.assoc_opt k cache) ~default:0. in
  let h = get (kind ^ ".hits") and m = get (kind ^ ".misses") in
  if h +. m = 0. then None else Some (h /. (h +. m))

(* The traffic must be what the workload claims: a cache the workload
   means to hit is hit, one it means to miss is missed. *)
let traffic_problems name cache =
  let need kind ok what =
    match hit_ratio cache kind with
    | Some r when ok r -> []
    | Some r -> [ Printf.sprintf "%s hit ratio %.4f, %s" kind r what ]
    | None -> [ Printf.sprintf "no %s cache lookups" kind ]
  in
  match name with
  | "eval-hot" -> need "eval" (fun r -> r >= 0.999) "expected >= 0.999"
  | "eval-fresh" ->
    need "eval" (fun r -> r <= 0.001) "expected <= 0.001"
    @ need "closed_form" (fun r -> r >= 0.999) "expected >= 0.999"
  | "sweep" -> need "closed_form" (fun r -> r >= 0.999) "expected >= 0.999"
  | "derive-cold" -> need "symbolic" (fun r -> r = 0.) "expected 0"
  | _ -> []

let latencies t = Array.of_seq (Queue.to_seq t.lat)

(* Start a server in a fresh directory, send the workload's priming
   requests (the set-up, whose duration [f] receives), run [f], then
   stop the server, which must exit cleanly. *)
let with_server ~exe (w : I.t) t f =
  let dir = Proc.fresh_dir () in
  Fun.protect ~finally:(fun () -> Proc.remove_dir dir) @@ fun () ->
  let t0 = Proc.now () in
  let srv = Proc.start_server ~exe ~dir in
  let prime () =
    let sync = Http.Sync.create srv.port in
    List.iteri
      (fun k item ->
        let r = Http.Sync.call sync ~meth:"POST" ~path:(I.path_of item) ~body:(I.body_of item) in
        t.attempted_ <- t.attempted_ + 1;
        if r.status <> 200 then problem t (Printf.sprintf "priming request %d answered %d" k r.status)
        else (
          match I.verify item r.body with
          | Ok () -> ()
          | Error m -> problem t (Printf.sprintf "priming request %d: %s" k m));
        (* the paper's stop-and-wait point comes first on every primed workload *)
        let answer = Result.to_option (J.of_string r.body) |> Fun.flip Option.bind (J.member "throughput") in
        if k = 0 && answer <> Some (J.Str I.ci_value) then
          problem t ("the paper's point did not evaluate to " ^ I.ci_value))
      w.prime;
    if w.prime = [] then ignore (Http.Sync.call sync ~meth:"GET" ~path:"/healthz" ~body:"");
    Http.Sync.close sync
  in
  let result =
    match
      prime ();
      f srv dir (Proc.now () -. t0)
    with
    | r -> r
    | exception e ->
      ignore (Proc.stop_server srv);
      raise e
  in
  (match Proc.stop_server srv with
  | Ok () -> ()
  | Error m -> problem t ("shutdown: " ^ m));
  result

let serve_repeat ~exe (w : I.t) =
  let t = tally () in
  let result =
    with_server ~exe w t (fun srv dir setup_s ->
        (* warm-up answers are checked, but their latencies dropped *)
        ignore (drive ~port:srv.port w ~lo:0 ~hi:w.warmup t);
        verify_kept w t;
        Queue.clear t.lat;
        t.bytes <- 0;
        let before = scrape srv.port in
        let cpu0 = Proc.cpu_seconds srv.pid in
        let ledger = Filename.concat dir "runs.ndjson" in
        let ledger0 = Proc.file_size ledger in
        let out = drive ~port:srv.port w ~lo:w.warmup ~hi:(Array.length w.items) t in
        let cpu1 = Proc.cpu_seconds srv.pid in
        let ledger1 = Proc.file_size ledger in
        let cache = cache_delta before (scrape srv.port) in
        let rss_mb = Proc.peak_rss_mb srv.pid in
        verify_kept w t;
        List.iter (fun m -> problem t ("traffic check: " ^ m)) (traffic_problems w.name cache);
        let lat = latencies t and n = float_of_int out.completed in
        {
          setup_s;
          throughput = n /. out.elapsed;
          p50_ms = percentile 0.50 lat *. 1e3;
          p99_ms = percentile 0.99 lat *. 1e3;
          cpu_ms_per_req = (cpu1 -. cpu0) *. 1e3 /. n;
          rss_mb;
          attempted = 0;
          failed = 0;
          reconnects = out.reconnects;
          ledger_bytes_per_req = float_of_int (ledger1 - ledger0) /. n;
          response_bytes = float_of_int t.bytes /. n;
          cache;
          problems = [];
        })
  in
  { result with attempted = t.attempted_; failed = t.failed_; problems = List.rev t.problems_ }

(* Set-up alone, on a server that then stops without load: more
   samples for the median of [setup_s]. *)
let setup_trials = 4

(* Seconds from spawning `tpan version` to its exit. *)
let version_run ~dir ~exe =
  let s = Proc.now () in
  let r = Proc.run_cli ~dir exe [ "version" ] in
  if r.code <> 0 then failwith "tpan version failed";
  Proc.now () -. s

(* The CLI has no server to start: its set-up is the cold start of the
   binary, the median of five `tpan version` runs. *)
let cli_repeat ~exe (w : I.t) =
  let dir = Proc.fresh_dir () in
  Fun.protect ~finally:(fun () -> Proc.remove_dir dir) @@ fun () ->
  Array.iter
    (function
      | I.Analyze a when not (Sys.file_exists (Filename.concat dir a.file)) ->
        Proc.write_file (Filename.concat dir a.file) a.src
      | _ -> ())
    w.items;
  let t = tally () in
  let setup_s = median (List.init 5 (fun _ -> version_run ~dir ~exe)) in
  let rss = Queue.create () and cpu = ref 0. in
  (* every payload is checked; only the timed runs are measured *)
  let run ~timed k =
    match w.items.(k) with
    | I.Analyze { file; transition; expected; _ } ->
      let s = Proc.now () in
      let r = Proc.run_cli ~dir exe [ "analyze"; file; "-t"; transition; "--json" ] in
      let lat = Proc.now () -. s in
      t.attempted_ <- t.attempted_ + 1;
      if r.code <> 0 then problem t (Printf.sprintf "%s exited %d" file r.code)
      else if I.without_trace_id r.out <> expected then
        problem t (Printf.sprintf "%s: payload differs from the in-process report" file)
      else if timed then begin
        Queue.add lat t.lat;
        if r.hwm_kb > 0 then Queue.add (float_of_int r.hwm_kb /. 1024.) rss;
        cpu := !cpu +. r.cpu_s;
        t.bytes <- t.bytes + String.length r.out
      end
    | _ -> invalid_arg "cli_repeat"
  in
  for k = 0 to w.warmup - 1 do
    run ~timed:false k
  done;
  let first = Proc.now () in
  for k = w.warmup to Array.length w.items - 1 do
    run ~timed:true k
  done;
  let elapsed = Proc.now () -. first in
  let lat = latencies t in
  let n = float_of_int (Array.length lat) in
  {
    setup_s;
    throughput = n /. elapsed;
    p50_ms = percentile 0.50 lat *. 1e3;
    p99_ms = percentile 0.99 lat *. 1e3;
    cpu_ms_per_req = !cpu *. 1e3 /. n;
    rss_mb = median (List.of_seq (Queue.to_seq rss));
    attempted = t.attempted_;
    failed = t.failed_;
    reconnects = 0;
    ledger_bytes_per_req = 0.;
    response_bytes = float_of_int t.bytes /. n;
    cache = [];
    problems = List.rev t.problems_;
  }

let run_repeat ~exe (w : I.t) = if w.conns = 0 then cli_repeat ~exe w else serve_repeat ~exe w

(* ----- metrics ----- *)

type metric = { name : string; unit_ : string; value : float; spread : float; per_repeat : float list }

let end_to_end =
  [
    ("throughput_rps", "req/s", fun r -> r.throughput);
    ("latency_p50_ms", "ms", fun r -> r.p50_ms);
    ("latency_p99_ms", "ms", fun r -> r.p99_ms);
    ("setup_s", "s", fun r -> r.setup_s);
    ("cpu_ms_per_req", "ms", fun r -> r.cpu_ms_per_req);
    ("peak_rss_mb", "MB", fun r -> r.rss_mb);
  ]

(* Median over repeats, and the spread (max - min) / median. *)
let summarize name unit_ values =
  let m = median values in
  let lo = List.fold_left min infinity values and hi = List.fold_left max neg_infinity values in
  { name; unit_; value = m; spread = (if m = 0. then 0. else (hi -. lo) /. m); per_repeat = values }

let layer_units =
  [
    ("serve.handle_us", "us"); ("serve.other_us", "us"); ("serve.socket_us", "us");
    ("serve.ledger_bytes_per_req", "bytes"); ("serve.response_bytes", "bytes");
    ("serve.reconnects", "count"); ("jsonv.decode_us", "us"); ("jsonv.encode_us", "us");
    ("models.load_us", "us"); ("dsl.parse_us", "us"); ("canonical.hash_us", "us"); ("ledger.append_us", "us");
    ("artifact.lookup_us", "us"); ("cache.eval.hit_ratio", "ratio");
    ("cache.closed_form.hit_ratio", "ratio"); ("cache.symbolic.hit_ratio", "ratio");
    ("cache.bytes", "bytes"); ("trg.build_ms", "ms"); ("trg.states", "count");
    ("trg.states_per_ms", "1/ms"); ("oracle.queries", "count"); ("oracle.fm_runs", "count");
    ("oracle.memo_hit_ratio", "ratio"); ("dg.collapse_ms", "ms"); ("dg.nodes", "count");
    ("rates.solve_ms", "ms"); ("measures.closed_form_ms", "ms"); ("qeval.small_us", "us");
    ("qeval.abp_ms", "ms"); ("qeval.terms", "count"); ("sweep.grid_ms", "ms");
    ("sweep.points", "count"); ("analysis.compute_ms", "ms"); ("cli.startup_ms", "ms");
    ("trace.coverage", "ratio"); ("trace.overhead", "ratio");
  ]

type outcome = {
  workload : string;
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
  notes : (string * J.t) list;  (** counts reported beside the metrics *)
}

(* ----- the untraced run ----- *)

let measure ~exe (w : I.t) =
  let rs = List.init repeats (fun _ -> run_repeat ~exe w) in
  let trials = tally () in
  let setups =
    if w.conns = 0 then []
    else List.init setup_trials (fun _ -> with_server ~exe w trials (fun _ _ setup_s -> setup_s))
  in
  let metrics =
    List.map
      (fun (name, u, f) ->
        let values = List.map f rs in
        summarize name u (if name = "setup_s" then values @ setups else values))
      end_to_end
  in
  let attempted = List.fold_left (fun a (r : repeat) -> a + r.attempted) trials.attempted_ rs in
  let failed = List.fold_left (fun a (r : repeat) -> a + r.failed) trials.failed_ rs in
  {
    workload = w.name;
    metrics;
    attempted;
    failed;
    problems = List.concat_map (fun (r : repeat) -> r.problems) rs @ List.rev trials.problems_;
    notes =
      [
        ("timed_requests_per_repeat", J.Int (Array.length w.items - w.warmup));
        ("warmup_requests", J.Int w.warmup);
        ("repeats", J.Int repeats);
        ("connections", J.Int w.conns);
        ("failed_frac", J.Float (float_of_int failed /. float_of_int (max 1 attempted)));
        ("reconnects", J.Int (List.fold_left (fun a (r : repeat) -> a + r.reconnects) 0 rs));
        ("ledger_bytes_per_req", J.Float (median (List.map (fun (r : repeat) -> r.ledger_bytes_per_req) rs)));
      ];
  }

(* ----- the traced run ----- *)

let cli_startup_ms ~exe =
  let dir = Proc.fresh_dir () in
  Fun.protect ~finally:(fun () -> Proc.remove_dir dir) @@ fun () ->
  median (List.init 15 (fun _ -> version_run ~dir ~exe)) *. 1e3

let trace ~exe o (w : I.t) =
  (* one untraced repeat first, before the replay starts any domain *)
  let r = run_repeat ~exe w in
  let startup = cli_startup_ms ~exe in
  let dir = Proc.fresh_dir () in
  let rp =
    Fun.protect ~finally:(fun () -> Proc.remove_dir dir) (fun () ->
        Replay.run ~dir ~n:(replay_count o w.name) w)
  in
  Replay.write_spans ~workload:w.name o.spans;
  let lv name = List.assoc name rp.layers in
  let ratio kind = Option.value (hit_ratio r.cache kind) ~default:0. in
  let values =
    rp.layers
    @ [
        ("serve.socket_us", (r.p50_ms *. 1e3) -. lv "serve.handle_us");
        ("serve.ledger_bytes_per_req", r.ledger_bytes_per_req);
        ("serve.response_bytes", r.response_bytes);
        ("serve.reconnects", float_of_int r.reconnects);
        ("cache.eval.hit_ratio", ratio "eval");
        ("cache.closed_form.hit_ratio", ratio "closed_form");
        ("cache.symbolic.hit_ratio", ratio "symbolic");
        ("cache.bytes", Option.value (List.assoc_opt "bytes" r.cache) ~default:0.);
        ("cli.startup_ms", startup);
      ]
  in
  {
    workload = w.name;
    metrics =
      List.map
        (fun (name, u) -> { name; unit_ = u; value = List.assoc name values; spread = 0.; per_repeat = [] })
        layer_units;
    attempted = r.attempted + rp.replayed;
    failed = r.failed + List.length rp.failures;
    problems = r.problems @ rp.failures;
    notes = [ ("replayed_requests", J.Int rp.replayed) ];
  }

(* ----- output ----- *)

let json_number v = if Float.is_finite v then J.Float v else J.Null

let print_outcome o (r : outcome) =
  Printf.printf "%s%s: %d attempted, %d failed\n" r.workload (if o.traced then " (traced)" else "") r.attempted
    r.failed;
  List.iter
    (fun m ->
      if o.traced then Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit_
      else
        Printf.printf "  %-16s %12.4f %-6s spread %5.1f%% over %d samples\n" m.name m.value m.unit_
          (100. *. m.spread) (List.length m.per_repeat))
    r.metrics;
  List.iter (fun p -> Printf.printf "  FAIL %s\n" p) r.problems;
  print_newline ()

let outcome_json (r : outcome) =
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               ( m.name,
                 J.Obj
                   ([ ("value", json_number m.value); ("unit", J.Str m.unit_) ]
                   @
                   if m.per_repeat = [] then []
                   else
                     [
                       ("spread", json_number m.spread);
                       ("repeats", J.List (List.map json_number m.per_repeat));
                     ]) ))
             r.metrics) );
      ("notes", J.Obj r.notes);
      ("problems", J.List (List.map (fun p -> J.Str p) r.problems));
    ]

(* The last line of standard output: one JSON object. With several
   workloads in one run, metric names carry the workload as a prefix. *)
let summary_line outcomes =
  let single = match outcomes with [ _ ] -> true | _ -> false in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 outcomes in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 outcomes in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.concat_map
                (fun r ->
                  List.map
                    (fun m ->
                      ( (if single then m.name else r.workload ^ "." ^ m.name),
                        J.Obj [ ("value", json_number m.value); ("unit", J.Str m.unit_) ] ))
                    r.metrics)
                outcomes) );
       ])

(* ----- --compare ----- *)

let read_json path =
  match J.of_string (Proc.read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let member_exn k j =
  match J.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let num j = match J.to_float_opt j with Some f -> f | None -> nan

(* Relative change of every end-to-end metric of every workload from A to
   B, against the bounds in BENCHMARK.json; exit 1 on a regression. *)
let compare_runs a b =
  let bench = read_json "BENCHMARK.json" in
  let bounds =
    match member_exn "end_to_end" bench with
    | J.List l ->
      List.map
        (fun m ->
          ( Option.get (J.to_string_opt (member_exn "name" m)),
            ( Option.get (J.to_string_opt (member_exn "better" m)),
              num (member_exn "bound" m) ) ))
        l
    | _ -> failwith "BENCHMARK.json: end_to_end is not a list"
  in
  let wa = member_exn "workloads" (read_json a) and wb = member_exn "workloads" (read_json b) in
  let names = match wa with J.Obj l -> List.map fst l | _ -> [] in
  let regressions = ref 0 in
  Printf.printf "%-12s %-16s %12s %12s %8s %7s\n" "workload" "metric" "A" "B" "delta" "bound";
  List.iter
    (fun w ->
      match J.member w wb with
      | None ->
        incr regressions;
        Printf.printf "%-12s missing from %s\n" w b
      | Some rb ->
        let ra = member_exn w wa in
        if J.member "correct" rb <> Some (J.Bool true) then begin
          incr regressions;
          Printf.printf "%-12s B has failed checks\n" w
        end;
        List.iter
          (fun (metric, (better, bound)) ->
            let value r = Option.map (fun m -> num (member_exn "value" m)) (J.member metric (member_exn "metrics" r)) in
            match (value ra, value rb) with
            | Some va, Some vb ->
              let delta = (vb -. va) /. va in
              let worse = if better = "lower" then delta else -.delta in
              let bad = not (worse <= bound) in
              if bad then incr regressions;
              Printf.printf "%-12s %-16s %12.4f %12.4f %+7.1f%% %6.0f%%%s\n" w metric va vb (100. *. delta)
                (100. *. bound)
                (if bad then "  REGRESSION" else "")
            | _ -> ())
          bounds)
    names;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end
  else print_endline "no regression beyond the bounds"

(* ----- main ----- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* SIGTERM and SIGINT unwind through the finalizers that stop servers
     and delete scratch directories *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  Sys.catch_break true;
  let workloads = ref [] and seed = ref 1 and seconds = ref 15. and traced = ref false in
  let smoke = ref false and json = ref None and spans = ref "bench-load-spans.ndjson" in
  let compare = ref None in
  let set_trace = function
    | 0 -> traced := false
    | 1 -> traced := true
    | _ -> raise (Arg.Bad "--trace takes 0 or 1")
  in
  let cmp_a = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "NAME  run one workload (repeatable; default all): " ^ String.concat ", " I.names );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  target timed seconds per workload at the baseline (default 15)");
      ("--trace", Arg.Int set_trace, "0|1  1 reports the per-layer metrics instead (default 0)");
      ("--traced", Arg.Set traced, " same as --trace 1");
      ("--smoke", Arg.Set smoke, " run at 1/20 size");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  write every metric with its spread");
      ("--spans", Arg.Set_string spans, "FILE  where the traced run appends its spans (default bench-load-spans.ndjson)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string cmp_a; Arg.String (fun b -> compare := Some (!cmp_a, b)) ],
        "A.json B.json  compare two --json documents against the bounds in BENCHMARK.json" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tpan_load.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]";
  match !compare with
  | Some (a, b) -> compare_runs a b
  | None ->
    let o =
      {
        workloads = (if !workloads = [] then I.names else !workloads);
        seed = !seed;
        seconds = !seconds;
        traced = !traced;
        smoke = !smoke;
        json = !json;
        spans = !spans;
      }
    in
    List.iter
      (fun w -> if not (List.mem w I.names) then (prerr_endline ("unknown workload " ^ w); exit 2))
      o.workloads;
    let exe = tpan_exe () in
    let outcomes =
      List.map
        (fun name ->
          let w =
            I.make name ~seed:o.seed ~warmup:(warmup_count o name) ~count:(timed_count o name)
          in
          let r =
            try if o.traced then trace ~exe o w else measure ~exe w with
            | Sys.Break as e -> raise e
            | e ->
              {
                workload = name;
                metrics = [];
                attempted = 1;
                failed = 1;
                problems = [ Printexc.to_string e ];
                notes = [];
              }
          in
          print_outcome o r;
          r)
        o.workloads
    in
    Option.iter
      (fun path ->
        Proc.write_file path
          (J.to_string_hum
             (J.Obj
                [
                  ("schema", J.Int 1);
                  ("seed", J.Int o.seed);
                  ("seconds", J.Float o.seconds);
                  ("smoke", J.Bool o.smoke);
                  ("traced", J.Bool o.traced);
                  ("workloads", J.Obj (List.map (fun r -> (r.workload, outcome_json r)) outcomes));
                ])
          ^ "\n"))
      o.json;
    print_endline (summary_line outcomes);
    if List.exists (fun r -> r.failed > 0) outcomes then exit 1
