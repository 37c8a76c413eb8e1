module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn
module SG = Tpan_core.Symbolic
module M = Tpan_perf.Measures
module Sim = Tpan_sim.Simulator
module Rf = Tpan_symbolic.Ratfun
module Cache = Tpan_cache.Cache
module Codec = Tpan_cache.Codec
module J = Tpan_obs.Jsonv

(* ----- cache instances -----

   One cache per artifact kind, created lazily under the configuration
   in force at first use. [configure] resets them (intended for process
   startup, before the first request). *)

type config = { budget_bytes : int; persist_dir : string option }

let config = ref { budget_bytes = 128 * 1024 * 1024; persist_dir = None }

type sim_stat =
  | Single of { mean : float; deadlocked : bool }
  | Estimate of { mean : float; std_error : float; ci95 : float * float; runs : int }

type sim_summary = {
  net_hash : string;
  seed : int;
  runs : int;
  horizon : Q.t;
  throughputs : (string * sim_stat) list;
}

type caches = {
  symbolic : (SG.Graph.graph * M.Symbolic.result) Cache.t;
  closed : Rf.t Cache.t;
  eval_q : Q.t Cache.t;
  report : Analysis.report Cache.t;
}

let caches_cell : caches option ref = ref None
let caches_mutex = Mutex.create ()

(* The report codec lives here rather than in [Tpan_cache.Codec]: the
   record is defined by this library, which the cache layer must not
   depend on. Exact throughout — every rational renders via
   [Q.to_string] and parses back unchanged. Decoding ignores keys it
   does not read, so lines written when the report carried one more
   field still replay. *)
let report_to_json (r : Analysis.report) =
  J.Obj
    [
      ("model", (match r.Analysis.model with None -> J.Null | Some m -> J.Str m));
      ("states", J.Int r.Analysis.states);
      ("edges", J.Int r.Analysis.edges);
      ("decision_nodes", J.Int r.Analysis.decision_nodes);
      ("mean_cycle_time", Codec.q_to_json r.Analysis.mean_cycle_time);
      ( "throughputs",
        J.List
          (List.map
             (fun (name, q) -> J.List [ J.Str name; Codec.q_to_json q ])
             r.Analysis.throughputs) );
    ]

let report_of_json doc =
  let exception Bad in
  let need = function Some x -> x | None -> raise Bad in
  let int = function J.Int n -> n | _ -> raise Bad in
  try
    Some
      {
        Analysis.model =
          (match need (J.member "model" doc) with
          | J.Null -> None
          | J.Str m -> Some m
          | _ -> raise Bad);
        states = int (need (J.member "states" doc));
        edges = int (need (J.member "edges" doc));
        decision_nodes = int (need (J.member "decision_nodes" doc));
        mean_cycle_time = need (Codec.q_of_json (need (J.member "mean_cycle_time" doc)));
        throughputs =
          (match need (J.member "throughputs" doc) with
          | J.List rows ->
            List.map
              (function
                | J.List [ J.Str name; qj ] -> (name, need (Codec.q_of_json qj))
                | _ -> raise Bad)
              rows
          | _ -> raise Bad);
      }
  with Bad -> None

let make_caches () =
  let { budget_bytes; persist_dir } = !config in
  let mem name = Cache.create ~name ~budget_bytes () in
  let persisted name encode decode =
    Cache.create ~name ~budget_bytes ?persist:persist_dir ~encode ~decode ()
  in
  {
    symbolic = mem "symbolic";
    closed = persisted "closed_form" Codec.ratfun_to_json Codec.ratfun_of_json;
    eval_q = persisted "eval" Codec.q_to_json Codec.q_of_json;
    report = persisted "report" report_to_json report_of_json;
  }

let caches () =
  Mutex.lock caches_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock caches_mutex)
    (fun () ->
      match !caches_cell with
      | Some c -> c
      | None ->
        (* made on first use, inside the first request's context; but
           replaying the persisted journals is not that request's work,
           so its deadline must not cut the replay short (a cut replay
           leaves no caches, and every later request replays again) *)
        let token = Tpan_obs.Cancel.current () in
        Tpan_obs.Cancel.set None;
        let c = Fun.protect ~finally:(fun () -> Tpan_obs.Cancel.set token) make_caches in
        caches_cell := Some c;
        c)

let configure ?budget_bytes ?persist_dir () =
  Mutex.lock caches_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock caches_mutex)
    (fun () ->
      let c = !config in
      config :=
        {
          budget_bytes =
            (match budget_bytes with Some b -> b | None -> c.budget_bytes);
          (* full replace, not sticky: [configure ()] turns persistence
             off again, so a restarted embedder (or a test) can return
             to memory-only caches *)
          persist_dir;
        };
      caches_cell := None)

(* Surfacing per-kind hit/miss statistics to the serving layer's
   /statusz without exposing the cache instances themselves. Reads the
   live caches when they exist; never forces their creation. The mutex
   guards only the cell: every artifact call takes it, so it must not be
   held while reading. *)
let cache_stats () =
  match Mutex.protect caches_mutex (fun () -> !caches_cell) with
  | None -> []
  | Some c ->
    [
      (Cache.name c.symbolic, Cache.stats c.symbolic);
      (Cache.name c.closed, Cache.stats c.closed);
      (Cache.name c.eval_q, Cache.stats c.eval_q);
      (Cache.name c.report, Cache.stats c.report);
    ]

let reset_caches () =
  Mutex.lock caches_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock caches_mutex)
    (fun () ->
      match !caches_cell with
      | None -> ()
      | Some c ->
        Cache.clear c.symbolic;
        Cache.clear c.closed;
        Cache.clear c.eval_q;
        Cache.clear c.report)

(* ----- cached pure functions -----

   [find_or_build] claims a key before building it, so identical keys
   build exactly once even under concurrent requests, while distinct
   keys build in parallel; the nested builds below (eval, then
   closed_form, then symbolic) hold no lock while the inner one runs. A
   request waiting on another's build keeps its own deadline. A failing
   build caches nothing — errors must not outlive the request that hit
   them (a deadline abort, say). [Build_error] carries the typed error
   through the cache layer. *)

exception Build_error of Error.t

let cached cache key build =
  match
    Cache.find_or_build cache key (fun () ->
        match build () with Ok v -> v | Error e -> raise (Build_error e))
  with
  | v -> Ok v
  | exception Build_error e -> Error e

let ms_key = function None -> "-" | Some n -> string_of_int n

let symbolic ?max_states canonical =
  let key = Printf.sprintf "%s|ms=%s" (Canonical.hash canonical) (ms_key max_states) in
  cached (caches ()).symbolic key (fun () ->
      Error.guard (fun () ->
          let g = SG.build ?max_states (Canonical.tpn canonical) in
          (g, M.Symbolic.analyze g)))

let closed_form ?max_states canonical ~transition =
  let key =
    Printf.sprintf "%s|ms=%s|thr=%s" (Canonical.hash canonical) (ms_key max_states)
      transition
  in
  cached (caches ()).closed key (fun () ->
      match symbolic ?max_states canonical with
      | Error e -> Error e
      | Ok (g, res) ->
        Error.guard (fun () -> M.Symbolic.throughput res g transition))

(* Point evaluations are memoized too: on large nets the exact rational
   evaluation of the closed form dominates a served request, and the
   result is a pure function of (net, transition, point). *)
let eval ?max_states canonical ~transition ~point =
  let pt =
    List.sort String.compare
      (List.map (fun (n, q) -> n ^ "=" ^ Q.to_string q) point)
  in
  let key =
    Printf.sprintf "%s|ms=%s|thr=%s|pt=%s" (Canonical.hash canonical)
      (ms_key max_states) transition (String.concat "," pt)
  in
  cached (caches ()).eval_q key (fun () ->
      Result.bind (closed_form ?max_states canonical ~transition) (fun expr ->
          M.Symbolic.eval expr point))

let analysis ?max_states ?(throughputs = []) canonical =
  let key =
    Printf.sprintf "%s|ms=%s|thr=%s" (Canonical.hash canonical) (ms_key max_states)
      (String.concat "," throughputs)
  in
  Result.map Analysis.notify
  @@ cached (caches ()).report key (fun () ->
         Analysis.compute ?max_states ~throughputs (Canonical.tpn canonical))

let simulate ?(seed = 42) ?(runs = 1) ~horizon ~transitions canonical =
  Error.guard (fun () ->
      let tpn = Canonical.tpn canonical in
      let throughputs =
        List.map
          (fun name ->
            let t = M.transition tpn name in
            if runs <= 1 then begin
              let stats = Sim.run ~seed ~horizon tpn in
              ( name,
                Single
                  {
                    mean = Sim.throughput stats t;
                    deadlocked = stats.Sim.deadlocked;
                  } )
            end
            else
              let est =
                Sim.run_many ~seed ~runs ~horizon tpn (fun s -> Sim.throughput s t)
              in
              ( name,
                Estimate
                  {
                    mean = est.Sim.mean;
                    std_error = est.Sim.std_error;
                    ci95 = est.Sim.ci95;
                    runs = est.Sim.runs;
                  } ))
          transitions
      in
      {
        net_hash = Canonical.hash canonical;
        seed;
        runs = max 1 runs;
        horizon;
        throughputs;
      })

let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

let sim_summary_fields s =
  [
    ("horizon", J.Raw (qf s.horizon));
    ("seed", J.Int s.seed);
    ("runs", J.Int s.runs);
    ( "throughputs",
      J.Obj
        (List.map
           (fun (name, stat) ->
             match stat with
             | Single { mean; deadlocked } ->
               (name, J.Obj [ ("mean", J.Float mean); ("deadlocked", J.Bool deadlocked) ])
             | Estimate { mean; std_error; ci95 = lo, hi; runs = _ } ->
               ( name,
                 J.Obj
                   [
                     ("mean", J.Float mean);
                     ("std_error", J.Float std_error);
                     ("ci95", J.List [ J.Float lo; J.Float hi ]);
                   ] ))
           s.throughputs) );
  ]

(* ----- warm-start ----- *)

let warm ?max_states names =
  List.map
    (fun name ->
      let result =
        match Models.find name with
        | None ->
          Error (Error.Invalid_input (Printf.sprintf "unknown builtin model %s" (Error.quote name)))
        | Some (m : Models.t) -> (
          match Error.guard (fun () -> m.Models.make []) with
          | Error e -> Error e
          | Ok tpn ->
            let canonical = Canonical.of_tpn tpn in
            if Tpn.is_concrete tpn then
              Result.map ignore
                (analysis ?max_states ~throughputs:m.Models.deliveries canonical)
            else
              List.fold_left
                (fun acc transition ->
                  match acc with
                  | Error _ -> acc
                  | Ok () ->
                    Result.map ignore (closed_form ?max_states canonical ~transition))
                (Ok ()) m.Models.deliveries)
      in
      (name, result))
    names
