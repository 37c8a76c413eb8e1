(** Analysis artifacts as pure cached functions of canonical nets.

    Every analysis product a request reads back — the symbolic graph
    with its solved rates, closed-form throughput expressions, their
    point evaluations and full concrete analysis reports — is an
    {e artifact}: a value computed by a pure function of a {!Canonical}
    net (plus the artifact's own parameters), memoized in a keyed
    {!Tpan_cache.Cache}.

    Identical nets therefore hit the symbolic build {e exactly once}
    per process (and, with persistence configured, once per cache
    directory): a million "what's my throughput at loss=p?" requests
    cost one TRG construction plus a million cheap expression
    evaluations — the paper's whole argument, turned into an API.

    Every cached kind has a reader: a product computed once per
    process (a simulation summary) is computed directly, uncached.
    Errors are never cached (a deadline abort must not poison the cache
    for later, better-funded requests).

    The CLI subcommands and [tpan serve] share these functions (the
    query kinds through {!Query.run}), so both front ends serve
    byte-identical results from one code path.

    Cache metrics land in the {!Tpan_obs.Metrics} registry under
    [cache.symbolic.*], [cache.closed_form.*], [cache.eval.*] and
    [cache.report.*]. *)

module Q = Tpan_mathkit.Q

val configure : ?budget_bytes:int -> ?persist_dir:string -> unit -> unit
(** Set the per-cache byte budget (default 128 MiB) and the persistence
    directory (e.g. [".tpan/cache"]) for the artifact kinds with a
    codec — closed forms, point evaluations and analysis reports. Omitting [persist_dir] turns persistence off (the setting
    is replaced, not merged). Resets existing caches — call at startup,
    before the first artifact request. *)

val reset_caches : unit -> unit
(** Drop every cached artifact (counters keep their totals). The bench
    harness uses this to measure genuinely-uncached builds. *)

val cache_stats : unit -> (string * Tpan_cache.Cache.stats) list
(** Live [(kind, stats)] per artifact cache — ["symbolic"],
    ["closed_form"], ["eval"], ["report"] — for a server's
    [/statusz] page. Empty if no artifact has been requested yet (the
    caches are created lazily and this never forces them). *)

(** {1 Graph artifacts} *)

val symbolic :
  ?max_states:int ->
  Canonical.t ->
  (Tpan_core.Symbolic.Graph.graph * Tpan_perf.Measures.Symbolic.result, Error.t) result
(** The symbolic TRG together with its collapsed decision graph and
    solved traversal rates — the expensive artifact everything
    closed-form hangs off. Cached per [(hash, max_states)]; the
    [cache.symbolic.misses] counter counts actual symbolic builds. *)

(** {1 Closed forms — the million-user fast path} *)

val closed_form :
  ?max_states:int ->
  Canonical.t ->
  transition:string ->
  (Tpan_symbolic.Ratfun.t, Error.t) result
(** The net's closed-form throughput (completions of [transition] per
    time unit) as a rational function of its symbols. Persistable:
    with a cache directory configured, a restarted server serves this
    without rebuilding the symbolic TRG. *)

val eval :
  ?max_states:int ->
  Canonical.t ->
  transition:string ->
  point:(string * Q.t) list ->
  (Q.t, Error.t) result
(** Evaluate the cached closed form at a rational point (keys are
    variable display names: ["E(t3)"], ["f(t4)"], …). [Invalid_input]
    on a missing binding, [Unsupported] on a vanishing denominator.
    The value itself is memoized (cache ["eval"]): on large nets the
    exact rational evaluation dominates a served request, and the
    result is a pure function of the net, transition and point. *)

(** {1 Reports} *)

val analysis :
  ?max_states:int ->
  ?throughputs:string list ->
  Canonical.t ->
  (Analysis.report, Error.t) result
(** The full concrete analysis report, cached per
    [(hash, max_states, throughputs)]. Every call — hit or miss —
    runs {!Analysis.notify}, so report hooks (the run ledger) fire per
    request, not per build. *)

(** {1 Simulation summaries} *)

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

val simulate :
  ?seed:int ->
  ?runs:int ->
  horizon:Q.t ->
  transitions:string list ->
  Canonical.t ->
  (sim_summary, Error.t) result
(** Monte-Carlo summary, computed on every call (uncached: the one
    caller, [tpan simulate], asks once per process). Simulation is
    deterministic in the seed; replications fan out over the worker
    pool. *)

val sim_summary_fields : sim_summary -> (string * Tpan_obs.Jsonv.t) list
(** Envelope-free payload fields (the CLI and server wrap them). *)

(** {1 Warm-start} *)

val warm : ?max_states:int -> string list -> (string * (unit, Error.t) result) list
(** [warm names] pre-builds the artifacts requests read for each
    builtin model named: for a concrete model, its analysis report over
    its default deliveries (one concrete TRG build); for a symbolic one,
    the closed-form throughput of every default delivery (one symbolic
    build). Served traffic then starts on a hot cache — and with a
    persistence directory configured, the first process to warm also
    seeds the cache files every later process replays. Returns one
    [(name, result)] per requested model; unknown names and build
    failures report as [Error] without aborting the rest. *)
