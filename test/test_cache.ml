(* The artifact cache: hit/miss accounting, LRU eviction under a byte
   budget, exactly-once builds, persistence round-trips through the
   expression codec, and physical sharing across worker domains. *)

module Cache = Tpan_cache.Cache
module Codec = Tpan_cache.Codec
module J = Tpan_obs.Jsonv
module Q = Tpan_mathkit.Q
module Rf = Tpan_symbolic.Ratfun
module SG = Tpan_core.Symbolic
module M = Tpan_perf.Measures

(* Metrics counters are find-or-create by name and process-global, so
   every test uses a cache name of its own for clean counts. *)

let test_hit_miss () =
  let c = Cache.create ~name:"test.hitmiss" () in
  Alcotest.(check bool) "empty miss" true (Cache.find c "k" = None);
  Cache.put c "k" 42;
  Alcotest.(check bool) "present hit" true (Cache.find c "k" = Some 42);
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check bool) "bytes accounted" true (s.Cache.bytes > 0);
  Cache.remove c "k";
  Alcotest.(check int) "removed" 0 (Cache.stats c).Cache.entries

let test_eviction_under_budget () =
  (* each value weighs ~8KiB; a budget of ~1.5 values keeps exactly one *)
  let value tag = (tag, String.make 8192 'x') in
  let budget = 12 * 1024 in
  let c = Cache.create ~name:"test.evict" ~budget_bytes:budget () in
  Cache.put c "one" (value 1);
  Cache.put c "two" (value 2);
  let s = Cache.stats c in
  Alcotest.(check int) "evicted down to one entry" 1 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check bool) "within budget" true (s.Cache.bytes <= budget);
  Alcotest.(check bool) "LRU victim was the older key" true (Cache.mem c "two");
  Alcotest.(check bool) "older key gone" false (Cache.mem c "one");
  (* a find refreshes recency: after touching "two", inserting "three"
     still evicts the stalest entry *)
  ignore (Cache.find c "two");
  Cache.put c "three" (value 3);
  Alcotest.(check bool) "newest present" true (Cache.mem c "three")

let test_find_or_build_exactly_once () =
  let c = Cache.create ~name:"test.once" () in
  let builds = ref 0 in
  let build () =
    incr builds;
    ref 7
  in
  let a = Cache.find_or_build c "k" build in
  let b = Cache.find_or_build c "k" build in
  Alcotest.(check int) "built once" 1 !builds;
  Alcotest.(check bool) "second call returns the same physical value" true (a == b)

let test_errors_not_cached () =
  let c = Cache.create ~name:"test.raise" () in
  let attempts = ref 0 in
  let failing () =
    incr attempts;
    if !attempts = 1 then failwith "transient" else 99
  in
  (match Cache.find_or_build c "k" failing with
   | (_ : int) -> Alcotest.fail "first build should raise"
   | exception Failure _ -> ());
  Alcotest.(check int) "nothing cached after a raise" 0 (Cache.stats c).Cache.entries;
  Alcotest.(check int) "retry rebuilds and caches" 99 (Cache.find_or_build c "k" failing);
  Alcotest.(check int) "two attempts" 2 !attempts

(* Latches for the tests of concurrent builds: [await cond] polls until
   [cond ()] holds or 2 s pass and says which, and a build blocked in
   [hold gate] opens the gate itself after 2 s. So a cache that built
   under its mutex fails these tests instead of hanging them. *)
let await cond =
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ()))
  in
  go ()

let hold gate = if not (await (fun () -> Atomic.get gate)) then Atomic.set gate true

(* A build on its own domain that flags [building] and then holds [gate]. *)
let slow_build c key ~building ~gate v =
  Domain.spawn (fun () ->
      Cache.find_or_build c key (fun () ->
          Atomic.set building true;
          hold gate;
          v))

(* [stats] reads atomic cells, so it returns while [find_or_build] runs
   a build. *)
let test_stats_during_build () =
  let c = Cache.create ~name:"test.stats_latch" () in
  let building = Atomic.make false and latch = Atomic.make false in
  let builder = slow_build c "k" ~building ~gate:latch 7 in
  ignore (await (fun () -> Atomic.get building));
  let s = Cache.stats c in
  let opened_first = Atomic.get latch in
  Atomic.set latch true;
  Alcotest.(check int) "the build completes" 7 (Domain.join builder);
  Alcotest.(check bool) "stats returned before the latch opened" false opened_first;
  Alcotest.(check int) "the building lookup's miss is counted" 1 s.Cache.misses;
  Alcotest.(check int) "nothing stored yet" 0 s.Cache.entries;
  Alcotest.(check int) "stored after the build" 1 (Cache.stats c).Cache.entries

(* ----- persistence via the expression codec ----- *)

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpan_cache_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let stopwait_sym () =
  match Tpan.Analysis.load (Tpan.Analysis.Builtin "stopwait-sym") with
  | Ok tpn -> tpn
  | Error e -> Alcotest.failf "load stopwait-sym: %s" (Tpan.Error.to_string e)

let closed_form_fresh tpn =
  let g = SG.build tpn in
  let res = M.Symbolic.analyze g in
  M.Symbolic.throughput res g "t7"

let point =
  [
    ("E(t3)", Q.of_int 250);
    ("F(t1)", Q.one);
    ("F(t2)", Q.one);
    ("F(t3)", Q.one);
    ("F(t4)", Q.of_decimal_string "106.7");
    ("F(t5)", Q.of_decimal_string "106.7");
    ("F(t6)", Q.of_decimal_string "13.5");
    ("F(t7)", Q.of_decimal_string "13.5");
    ("F(t8)", Q.of_decimal_string "106.7");
    ("F(t9)", Q.of_decimal_string "106.7");
    ("f(t4)", Q.of_decimal_string "0.05");
    ("f(t5)", Q.of_decimal_string "0.95");
    ("f(t8)", Q.of_decimal_string "0.95");
    ("f(t9)", Q.of_decimal_string "0.05");
  ]

let test_codec_round_trip () =
  let thr = closed_form_fresh (stopwait_sym ()) in
  match Codec.ratfun_of_json (Codec.ratfun_to_json thr) with
  | None -> Alcotest.fail "closed form does not decode"
  | Some back ->
    Alcotest.(check bool) "decoded expression is equal" true (Rf.equal thr back);
    Alcotest.(check string) "evaluates identically at the paper's point"
      (Q.to_string (M.Symbolic.eval_at thr point))
      (Q.to_string (M.Symbolic.eval_at back point))

let test_persistence_round_trip () =
  let dir = temp_dir () in
  let mk () =
    Cache.create ~name:"test.persist" ~persist:dir ~encode:Codec.ratfun_to_json
      ~decode:Codec.ratfun_of_json ()
  in
  let thr = closed_form_fresh (stopwait_sym ()) in
  let c1 = mk () in
  Cache.put c1 "thr" thr;
  (* a second process (modelled by a second cache instance) replays the
     NDJSON and serves the decoded expression *)
  let c2 = mk () in
  (match Cache.find c2 "thr" with
   | None -> Alcotest.fail "persisted entry not reloaded"
   | Some back ->
     Alcotest.(check string) "reloaded closed form evaluates identically"
       (Q.to_string (M.Symbolic.eval_at thr point))
       (Q.to_string (M.Symbolic.eval_at back point)));
  (* last write wins across replays *)
  Cache.put c2 "thr" (Rf.of_int 3);
  let c3 = mk () in
  Alcotest.(check bool) "later write shadows the first" true
    (match Cache.find c3 "thr" with Some v -> Rf.equal v (Rf.of_int 3) | None -> false)

(* ----- the artifact layer on top ----- *)

let canonical name =
  match Tpan.Analysis.load (Tpan.Analysis.Builtin name) with
  | Ok tpn -> Tpan.Canonical.of_tpn tpn
  | Error e -> Alcotest.failf "load %s: %s" name (Tpan.Error.to_string e)

(* ----- warm-start: persist everything, replay everything ----- *)

let test_warm_start_replays_all_kinds () =
  let dir = temp_dir () in
  Tpan.Artifact.configure ~persist_dir:dir ();
  let deliveries name =
    match Tpan.Models.find name with
    | Some m -> m.Tpan.Models.deliveries
    | None -> Alcotest.failf "no builtin %s" name
  in
  (* a concrete model warms its analysis report, whose derivation is
     the only concrete TRG build: stop-and-wait has 18 states *)
  let interned () = Tpan_obs.Metrics.counter_value "core.semantics.states_interned" in
  let before_warm = interned () in
  let warmed = Tpan.Artifact.warm [ "stopwait" ] in
  Alcotest.(check int) "one concrete TRG build" 18 (interned () - before_warm);
  let warmed = warmed @ Tpan.Artifact.warm [ "stopwait-sym"; "no-such-net" ] in
  List.iter
    (fun (name, r) ->
      match (name, r) with
      | "no-such-net", Error Tpan.Error.(Invalid_input _) -> ()
      | "no-such-net", _ -> Alcotest.fail "unknown model must warm as an error"
      | _, Ok () -> ()
      | _, Error e -> Alcotest.failf "warm %s: %s" name (Tpan.Error.to_string e))
    warmed;
  (* an eval too, so every persistable kind has a line on disk *)
  let sym = canonical "stopwait-sym" in
  (match Tpan.Artifact.eval sym ~transition:"t7" ~point with
  | Ok v -> Alcotest.(check string) "warm eval value" "1805/486672" (Q.to_string v)
  | Error e -> Alcotest.failf "eval: %s" (Tpan.Error.to_string e));
  let kinds = [ "report"; "closed_form"; "eval" ] in
  List.iter
    (fun k ->
      let f = Filename.concat dir (k ^ ".ndjson") in
      Alcotest.(check bool) (k ^ " cache file written") true
        (Sys.file_exists f && (Unix.stat f).Unix.st_size > 0))
    kinds;
  Alcotest.(check bool) "no trg cache file" false
    (Sys.file_exists (Filename.concat dir "trg.ndjson"));
  let report () =
    match
      Tpan.Artifact.analysis ~throughputs:(deliveries "stopwait") (canonical "stopwait")
    with
    | Ok r -> J.to_string (Tpan.Analysis.report_to_json r)
    | Error e -> Alcotest.failf "report: %s" (Tpan.Error.to_string e)
  in
  let warm_report = report () in
  (* rewrite the report line in the format persisted while reports
     carried one more field, null on every net the rate solve answered:
     the retired key must not stop it replaying *)
  let retired_key = "deterministic_period" in
  let report_file = Filename.concat dir "report.ndjson" in
  let with_retired_key line =
    let add_key = function
      | ("mean_cycle_time", _) as kv -> [ kv; (retired_key, J.Null) ]
      | kv -> [ kv ]
    in
    match J.of_string line with
    | Ok (J.Obj fields) ->
      J.to_string
        (J.Obj
           (List.map
              (function
                | "value", J.Obj v -> ("value", J.Obj (List.concat_map add_key v))
                | kv -> kv)
              fields))
    | _ -> Alcotest.failf "unreadable report line: %s" line
  in
  let lines =
    In_channel.with_open_bin report_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map with_retired_key
  in
  Out_channel.with_open_bin report_file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Alcotest.(check bool) "report lines carry the retired key" true
    (List.exists
       (fun l ->
         match J.of_string l with
         | Ok doc ->
           Option.bind (J.member "value" doc) (J.member retired_key) = Some J.Null
         | Error _ -> false)
       lines);
  let misses k = Tpan_obs.Metrics.counter_value (Printf.sprintf "cache.%s.misses" k) in
  let before = List.map (fun k -> (k, misses k)) kinds in
  (* "restart": configure drops every cache, the next artifact call
     replays the NDJSON — and every kind must answer without a rebuild *)
  Tpan.Artifact.configure ~persist_dir:dir ();
  Alcotest.(check string) "replayed report" warm_report (report ());
  List.iter
    (fun transition ->
      match Tpan.Artifact.closed_form sym ~transition with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "replayed closed form %s: %s" transition
          (Tpan.Error.to_string e))
    (deliveries "stopwait-sym");
  (match Tpan.Artifact.eval sym ~transition:"t7" ~point with
  | Ok v ->
    Alcotest.(check string) "replayed eval value" "1805/486672" (Q.to_string v)
  | Error e -> Alcotest.failf "replayed eval: %s" (Tpan.Error.to_string e));
  List.iter
    (fun (k, b) ->
      Alcotest.(check int)
        (Printf.sprintf "no %s rebuild after restart" k)
        b (misses k))
    before;
  (* back to memory-only caches for the suites that follow *)
  Tpan.Artifact.configure ();
  Tpan.Artifact.reset_caches ()

(* A line written before closed forms came out in lowest terms carries
   schema 1 and may hold a form whose gcd costs seconds to decode; it
   must be skipped unread, and the artifact rebuilt on first use. The
   stale line holds the symbolic ABP throughput as elimination over
   ℚ(x) left it: 1,195 terms instead of 11. *)
let test_stale_schema_skipped () =
  let dir = temp_dir () in
  let abp = canonical "abp-sym" in
  let file = Filename.concat dir "closed_form.ndjson" in
  Tpan.Artifact.configure ~persist_dir:dir ();
  (match Tpan.Artifact.closed_form abp ~transition:"recv_new0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "closed form: %s" (Tpan.Error.to_string e));
  let key =
    let ic = open_in file in
    let line = input_line ic in
    close_in ic;
    match Result.map (J.member "key") (J.of_string line) with
    | Ok (Some k) -> k
    | _ -> Alcotest.fail "persisted line has no key"
  in
  let unreduced =
    let g = SG.build (Tpan.Canonical.tpn abp) in
    let res = Test_rates.(solve reference (decision_graph g)) in
    M.throughput_of_transition res ~by:`Completed
      (Tpan_petri.Net.trans_of_name (Tpan_core.Tpn.net (Tpan.Canonical.tpn abp)) "recv_new0")
  in
  let terms r = Tpan_symbolic.Poly.(size (Rf.num r) + size (Rf.den r)) in
  Alcotest.(check int) "the stale form" 1195 (terms unreduced);
  let oc = open_out file in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("schema", J.Int 1);
            ("kind", J.Str "closed_form");
            ("key", key);
            ("value", Codec.ratfun_to_json unreduced);
          ]));
  output_char oc '\n';
  close_out oc;
  let misses () = Tpan_obs.Metrics.counter_value "cache.closed_form.misses" in
  Tpan.Artifact.configure ~persist_dir:dir ();
  let before = misses () in
  (match Tpan.Artifact.closed_form abp ~transition:"recv_new0" with
  | Ok thr ->
    Alcotest.(check int) "rebuilt in lowest terms" 11 (terms thr);
    Alcotest.(check bool) "same value" true (Rf.equal thr unreduced)
  | Error e -> Alcotest.failf "rebuilt closed form: %s" (Tpan.Error.to_string e));
  Alcotest.(check int) "the stale line was skipped: one miss" (before + 1) (misses ());
  Tpan.Artifact.configure ();
  Tpan.Artifact.reset_caches ()

let test_artifact_parallel_sharing () =
  Tpan.Artifact.reset_caches ();
  let c = canonical "stopwait-sym" in
  let results =
    Tpan_par.Pool.map ~jobs:4
      (fun _ ->
        match Tpan.Artifact.symbolic c with
        | Ok v -> v
        | Error e -> Alcotest.failf "symbolic: %s" (Tpan.Error.to_string e))
      [ 1; 2; 3; 4 ]
  in
  match results with
  | first :: rest ->
    List.iteri
      (fun i r ->
        Alcotest.(check bool)
          (Printf.sprintf "worker %d shares the cached artifact physically" (i + 1))
          true (r == first))
      rest
  | [] -> Alcotest.fail "no results"

let test_artifact_cached_vs_fresh () =
  Tpan.Artifact.reset_caches ();
  let tpn = stopwait_sym () in
  let c = Tpan.Canonical.of_tpn tpn in
  let fresh = closed_form_fresh tpn in
  (match Tpan.Artifact.closed_form c ~transition:"t7" with
   | Error e -> Alcotest.failf "closed_form: %s" (Tpan.Error.to_string e)
   | Ok cached ->
     Alcotest.(check bool) "cached = fresh derivation" true (Rf.equal fresh cached));
  match Tpan.Artifact.eval c ~transition:"t7" ~point with
  | Error e -> Alcotest.failf "eval: %s" (Tpan.Error.to_string e)
  | Ok v ->
    Alcotest.(check string) "exact value at the paper's point" "1805/486672"
      (Q.to_string v)

let test_artifact_eval_errors () =
  Tpan.Artifact.reset_caches ();
  let c = canonical "stopwait-sym" in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  (match Tpan.Artifact.eval c ~transition:"t7" ~point:[ ("E(t3)", Q.of_int 250) ] with
   | Error (Tpan.Error.Invalid_input msg) ->
     Alcotest.(check bool) "names a missing binding" true (contains msg "F(")
   | Error e -> Alcotest.failf "unexpected error: %s" (Tpan.Error.to_string e)
   | Ok _ -> Alcotest.fail "incomplete point must not evaluate");
  match Tpan.Artifact.closed_form c ~transition:"nope" with
  | Error (Tpan.Error.Invalid_input _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Tpan.Error.to_string e)
  | Ok _ -> Alcotest.fail "unknown transition must not derive"

(* ----- the build latch: builds run outside the cache mutex ----- *)

let test_race_one_slow_key () =
  let c = Cache.create ~name:"test.latch_race" () in
  let builds = Atomic.make 0 and gate = Atomic.make false in
  let racer () =
    Domain.spawn (fun () ->
        Cache.find_or_build c "k" (fun () ->
            Atomic.incr builds;
            hold gate;
            ref 7))
  in
  let racers = List.init 4 (fun _ -> racer ()) in
  ignore (await (fun () -> Atomic.get builds > 0));
  (* give the other three time to find the key claimed *)
  Unix.sleepf 0.05;
  Atomic.set gate true;
  let values = List.map Domain.join racers in
  let s = Cache.stats c in
  Alcotest.(check int) "one build" 1 (Atomic.get builds);
  Alcotest.(check bool) "one physical value" true
    (List.for_all (( == ) (List.hd values)) values);
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "three hits" 3 s.Cache.hits

let test_distinct_keys_build_together () =
  let c = Cache.create ~name:"test.latch_parallel" () in
  let arrived = Atomic.make 0 in
  let build key =
    Domain.spawn (fun () ->
        Cache.find_or_build c key (fun () ->
            Atomic.incr arrived;
            await (fun () -> Atomic.get arrived = 2)))
  in
  let a = build "a" and b = build "b" in
  let saw_a = Domain.join a and saw_b = Domain.join b in
  Alcotest.(check bool) "each build saw the other under way" true (saw_a && saw_b);
  Alcotest.(check int) "two misses" 2 (Cache.stats c).Cache.misses

let test_hit_during_build () =
  let c = Cache.create ~name:"test.latch_hit" () in
  Cache.put c "b" 2;
  let building = Atomic.make false and gate = Atomic.make false in
  let builder = slow_build c "a" ~building ~gate 1 in
  ignore (await (fun () -> Atomic.get building));
  let b = Cache.find_or_build c "b" (fun () -> Alcotest.fail "b is cached") in
  let opened_first = Atomic.get gate in
  Atomic.set gate true;
  Alcotest.(check int) "a builds" 1 (Domain.join builder);
  Alcotest.(check int) "the hit on b" 2 b;
  Alcotest.(check bool) "b answered while a was building" false opened_first

let test_waiter_builds_after_failure () =
  let c = Cache.create ~name:"test.latch_raise" () in
  let building = Atomic.make false and gate = Atomic.make false in
  let builder =
    Domain.spawn (fun () ->
        match
          Cache.find_or_build c "k" (fun () ->
              Atomic.set building true;
              hold gate;
              failwith "the builder's own failure")
        with
        | (_ : int) -> false
        | exception Failure _ -> true)
  in
  ignore (await (fun () -> Atomic.get building));
  let waiter = Domain.spawn (fun () -> Cache.find_or_build c "k" (fun () -> 42)) in
  Unix.sleepf 0.05;
  Atomic.set gate true;
  Alcotest.(check bool) "the builder raised" true (Domain.join builder);
  Alcotest.(check int) "the waiter built its own value" 42 (Domain.join waiter);
  Alcotest.(check bool) "and cached it" true (Cache.find c "k" = Some 42)

let test_waiter_deadline () =
  let c = Cache.create ~name:"test.latch_deadline" () in
  let building = Atomic.make false and gate = Atomic.make false in
  let builder = slow_build c "k" ~building ~gate 7 in
  ignore (await (fun () -> Atomic.get building));
  let ctx = Tpan_obs.Context.make ~deadline:0.05 () in
  let waited =
    match
      Tpan_obs.Context.with_ctx ctx (fun () ->
          Cache.find_or_build c "k" (fun () -> Alcotest.fail "the key is claimed"))
    with
    | (_ : int) -> `Answered
    | exception Tpan_obs.Cancel.Cancelled (Tpan_obs.Cancel.Deadline _) -> `Cancelled
  in
  let opened_first = Atomic.get gate in
  Atomic.set gate true;
  Alcotest.(check bool) "the waiter raised Cancelled" true (waited = `Cancelled);
  Alcotest.(check bool) "before the build ended" false opened_first;
  Alcotest.(check int) "the builder went on" 7 (Domain.join builder);
  Alcotest.(check bool) "and cached its value" true (Cache.find c "k" = Some 7)

(* A waiter checks its token without a heartbeat: the stall watchdog
   reads the heartbeat total, so a wait on a wedged build must not read
   as progress. The builder's build makes no checkpoint either, so the
   total stays put while the key is claimed. *)
let test_waiter_does_not_beat () =
  let c = Cache.create ~name:"test.latch_beat" () in
  let building = Atomic.make false and gate = Atomic.make false in
  let builder = slow_build c "k" ~building ~gate 7 in
  ignore (await (fun () -> Atomic.get building));
  let before = Tpan_obs.Cancel.heartbeat_total () in
  let waiter =
    Domain.spawn (fun () ->
        Cache.find_or_build c "k" (fun () -> Alcotest.fail "the key is claimed"))
  in
  Unix.sleepf 0.05;
  let during = Tpan_obs.Cancel.heartbeat_total () in
  let opened_first = Atomic.get gate in
  Atomic.set gate true;
  Alcotest.(check int) "the builder's value" 7 (Domain.join builder);
  Alcotest.(check int) "the waiter's value" 7 (Domain.join waiter);
  Alcotest.(check bool) "measured while the key was claimed" false opened_first;
  Alcotest.(check int) "no heartbeat while waiting" before during

(* The artifact caches are made on first use, inside the first request's
   context, but replaying their journals is not that request's work: a
   deadline already past when the replay starts still loads every
   persisted closed form, and the lookup is a hit. *)
let test_replay_outside_deadline () =
  let dir = temp_dir () in
  let sym = canonical "stopwait-sym" in
  let transitions =
    match Tpan.Models.find "stopwait-sym" with
    | Some m -> m.Tpan.Models.deliveries
    | None -> Alcotest.fail "no builtin stopwait-sym"
  in
  let closed_form () =
    List.for_all
      (fun transition -> Result.is_ok (Tpan.Artifact.closed_form sym ~transition))
      transitions
  in
  let entries () = (List.assoc "closed_form" (Tpan.Artifact.cache_stats ())).Cache.entries in
  Tpan.Artifact.configure ~persist_dir:dir ();
  Fun.protect
    ~finally:(fun () ->
      Tpan.Artifact.configure ();
      Tpan.Artifact.reset_caches ())
    (fun () ->
      Alcotest.(check bool) "closed forms built" true (closed_form ());
      let persisted = entries () in
      Tpan.Artifact.configure ~persist_dir:dir ();
      let misses () = Tpan_obs.Metrics.counter_value "cache.closed_form.misses" in
      let before = misses () in
      let ctx = Tpan_obs.Context.make ~deadline:1e-9 () in
      let replayed =
        match Tpan_obs.Context.with_ctx ctx closed_form with
        | ok -> ok
        | exception Tpan_obs.Cancel.Cancelled _ -> false
      in
      Alcotest.(check bool) "answered under the expired deadline" true replayed;
      Alcotest.(check int) "every persisted entry loaded" persisted (entries ());
      Alcotest.(check int) "no rebuild" before (misses ()))

(* A persisted line may name any exponent, and decoding reduces the
   form by a gcd under the caches' mutex. For f(t4)^e / (f(t4) + 1) that
   is Euclid e steps deep: 1 s at e = 3,000, and f(t4)^100000 did not
   finish in 20 s. Past the bound the line is skipped like any
   undecodable one, and its artifact rebuilt on first use. *)
let test_huge_exponent_skipped () =
  let dir = temp_dir () in
  let mk () =
    Cache.create ~name:"test.exponent" ~persist:dir ~encode:Codec.ratfun_to_json
      ~decode:Codec.ratfun_of_json ()
  in
  let thr = closed_form_fresh (stopwait_sym ()) in
  let huge =
    let module Poly = Tpan_symbolic.Poly in
    let f4 = Poly.var (Tpan_symbolic.Var.frequency "t4") in
    Rf.make (Poly.pow f4 100_000) (Poly.add f4 Poly.one)
  in
  let c1 = mk () in
  Cache.put c1 "huge" huge;
  Cache.put c1 "good" thr;
  let warnings = ref [] in
  Tpan_obs.Log.set_sinks [ (Tpan_obs.Log.Warn, fun r -> warnings := r :: !warnings) ];
  let t0 = Unix.gettimeofday () in
  let c2 = Fun.protect ~finally:(fun () -> Tpan_obs.Log.set_sinks []) mk in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "replayed in under a second (%.2f s)" dt) true (dt < 1.);
  Alcotest.(check bool) "the valid key hits" true
    (match Cache.find c2 "good" with Some v -> Rf.equal v thr | None -> false);
  Alcotest.(check bool) "the huge one is not loaded" false (Cache.mem c2 "huge");
  Alcotest.(check bool) "the warning counts one skipped line" true
    (List.exists
       (fun (r : Tpan_obs.Log.record) ->
         r.msg = "cache: skipped undecodable persisted entries"
         && List.assoc_opt "skipped" r.fields = Some (J.Int 1))
       !warnings)

let suite =
  ( "cache",
    [
      Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss;
      Alcotest.test_case "LRU eviction under byte budget" `Quick test_eviction_under_budget;
      Alcotest.test_case "find_or_build builds exactly once" `Quick
        test_find_or_build_exactly_once;
      Alcotest.test_case "errors are never cached" `Quick test_errors_not_cached;
      Alcotest.test_case "stats never waits out a build" `Quick test_stats_during_build;
      Alcotest.test_case "expression codec round-trip" `Quick test_codec_round_trip;
      Alcotest.test_case "persistence round-trip" `Quick test_persistence_round_trip;
      Alcotest.test_case "warm-start replays every artifact kind" `Quick
        test_warm_start_replays_all_kinds;
      Alcotest.test_case "warm-start skips stale schema lines" `Quick
        test_stale_schema_skipped;
      Alcotest.test_case "-j4 workers share one artifact" `Quick
        test_artifact_parallel_sharing;
      Alcotest.test_case "cached = fresh closed form" `Quick test_artifact_cached_vs_fresh;
      Alcotest.test_case "eval error mapping" `Quick test_artifact_eval_errors;
      Alcotest.test_case "four racers on one slow key share one build" `Quick
        test_race_one_slow_key;
      Alcotest.test_case "distinct keys build at the same time" `Quick
        test_distinct_keys_build_together;
      Alcotest.test_case "a hit returns while another key builds" `Quick
        test_hit_during_build;
      Alcotest.test_case "a waiter builds after the builder raises" `Quick
        test_waiter_builds_after_failure;
      Alcotest.test_case "a waiter keeps its own deadline" `Quick test_waiter_deadline;
      Alcotest.test_case "a waiter adds no heartbeat" `Quick test_waiter_does_not_beat;
      Alcotest.test_case "a journal replays past the first request's deadline" `Quick
        test_replay_outside_deadline;
      Alcotest.test_case "a persisted exponent over 64 is skipped" `Quick
        test_huge_exponent_skipped;
    ] )
