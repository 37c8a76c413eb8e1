(** Keyed artifact cache: in-memory LRU under a byte budget, with
    optional NDJSON persistence.

    One ['a t] instance holds one {e kind} of artifact (closed-form
    throughput expressions, point evaluations, analysis reports, …),
    keyed by strings — in practice a {!Tpan.Canonical} content hash plus
    the artifact's own parameters. The cache is the reason identical
    nets hit the symbolic build exactly once: {!find_or_build} claims a
    missing key before it builds, so concurrent requests for the same
    key from several domains observe exactly one build and share the
    result {e physically} (OCaml 5 domains share the major heap). The
    instance mutex guards only the table and the set of claimed keys;
    builds run outside it, so distinct keys build in parallel and a
    lookup never waits for another key's build.

    Sizing is by estimated bytes ({!Obj.reachable_words}); when an
    insertion pushes the total over the budget, least-recently-used
    entries are evicted until it fits (the entry just inserted is never
    evicted by its own insertion).

    Every instance registers three counters and two gauges in
    {!Tpan_obs.Metrics}: [cache.<name>.hits], [cache.<name>.misses],
    [cache.<name>.evictions], [cache.<name>.bytes],
    [cache.<name>.entries] — the serve smoke test asserts "exactly one
    symbolic build" on the miss counter.

    Persistence is opt-in and codec-based: pass [persist] (a directory)
    together with [encode]/[decode] and every store appends one line
    [{"schema": 2, "kind": <name>, "key": …, "value": …}] to
    [<dir>/<name>.ndjson] through {!Tpan_obs.Ndjson}; a fresh instance
    replays the file at creation line by line, inserting each entry
    under the byte budget as it is read (last write wins; a file larger
    than the budget is never decoded whole). Artifacts are
    re-{e decoded} — never unmarshaled — so values built by an earlier
    process re-intern their symbols in this one. A line with any other
    schema is skipped like an undecodable one, and its artifact is
    rebuilt on first use: schema-1 lines may hold closed forms that were
    never brought to lowest terms, and reducing one on decode can cost
    seconds. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;  (** estimated resident size of all values *)
}

val create :
  name:string ->
  ?budget_bytes:int ->
  ?persist:string ->
  ?encode:('a -> Tpan_obs.Jsonv.t) ->
  ?decode:(Tpan_obs.Jsonv.t -> 'a option) ->
  unit ->
  'a t
(** [budget_bytes] defaults to 64 MiB. [persist] without both codecs is
    rejected ([Invalid_argument]); the directory is created by the first
    store. An unreadable persistence file degrades to an empty cache,
    and lines that do not parse or decode are skipped; either logs one
    warning (the skipped count is {!Tpan_obs.Ndjson.fold}'s). *)

val find : 'a t -> string -> 'a option
(** Bumps the hit/miss counters and the entry's recency. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or replace, then evict LRU entries beyond the byte budget
    (and append to the persistence file, when configured). *)

val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_build c key build] returns the cached value, or claims
    [key], runs [build] without the instance mutex and stores its
    result. Each key is built once: a lookup of a key whose build is in
    flight waits for that key alone, polling it about once a
    millisecond, and then returns the builder's physical value, counted
    as a hit (the builder counts the one miss). While it waits it calls
    {!Tpan_obs.Cancel.check}, so a waiter past its own request's
    deadline raises [Cancelled] and the build goes on, and the wait
    adds no heartbeat (a wedged build still reads as a stall). A raising [build]
    caches nothing: the exception passes through with its backtrace, the
    miss is still counted, and a waiter then claims the key and builds
    it itself rather than inheriting the exception. Builds may nest
    (a build may look up other keys, of this cache or another); a build
    that looked up its own key would wait for itself forever. *)

val mem : 'a t -> string -> bool
(** No counter or recency effect. *)

val remove : 'a t -> string -> unit

val clear : 'a t -> unit
(** Drop every entry (counters keep their totals; the persistence file
    is left untouched — it is an append-only journal, not the truth).
    A build in flight is not waited for: it stores its value when it
    ends, after the clear. *)

val stats : 'a t -> stats
(** Takes no lock, so a scrape never contends with the lookups it
    reports: the counters are atomic, and [entries] and [bytes] are the
    gauges as of the last insertion or removal. *)

val name : 'a t -> string
val budget_bytes : 'a t -> int
