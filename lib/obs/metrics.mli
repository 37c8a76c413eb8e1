(** Metrics registry: named counters, gauges and latency histograms shared
    by the whole pipeline.

    {b Domains.} Every update is safe from any domain, with no setup:
    counters and gauges are [Atomic] cells (one atomic add or store per
    update, cheap enough to leave permanently on in every hot loop), and
    each histogram carries its own mutex, taken by {!Histogram.observe},
    {!Histogram.reset} and every read. Totals are exact however the work
    was scheduled — across [Tpan_par.Pool] workers and serve's
    connection domains alike. A gauge {!Gauge.set} from several domains
    is last-writer-wins; {!Gauge.set_max} keeps the maximum.

    Histogram {e timing} (the only part that touches the clock or
    allocates) is gated behind a global switch ({!set_timing}) that
    defaults to off, so an uninstrumented run pays nothing beyond the
    integer bumps.

    Naming convention: [<lib>.<module>.<metric>], e.g.
    [mathkit.fm.eliminations], [core.semantics.states_interned],
    [symbolic.oracle.memo_hits]. The registry is global and process-wide;
    metrics registered by library initialization appear in {!snapshot}
    with zero values until first touched.

    {b Labels.} A metric may be registered with a label set
    ({!counter_with}, {!histogram_with}); series sharing a
    family name but differing in labels are distinct cells grouped under
    one family in the OpenMetrics export — the serving layer's
    per-endpoint RED metrics. Keep label cardinality bounded (endpoints,
    error classes — never raw paths or ids). *)

type exemplar = { ex_value : float; ex_trace_id : string; ex_ts : float }
(** A sampled observation pinned to its request: the value, the owning
    request's {!Context.trace_id}, and the wall-clock instant. The
    OpenMetrics export attaches it to the bucket the value landed in, so
    a scraper can jump from a slow bucket straight to the trace. *)

module Counter : sig
  type t

  val create : unit -> t
  (** A standalone (unregistered) counter — e.g. per-instance statistics
      that also feed a registered aggregate. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit

  val set_max : t -> float -> unit
  (** Keep the maximum of the current and the given value (a
      compare-and-set loop, so concurrent peaks never lose the larger). *)

  val value : t -> float
  val reset : t -> unit
end

module Histogram : sig
  type t

  val create : ?cap:int -> ?buckets:float array -> unit -> t
  (** [cap] (default 8192) bounds the stored sample window: beyond it, new
      observations overwrite the oldest slots round-robin, while [count],
      [sum], [max_value] and the bucket counts stay exact over the full
      stream. [buckets] (default: 0.5ms … 10s in seconds, roughly
      logarithmic) are the explicit cumulative-bucket upper bounds;
      strictly increasing, +Inf implied last. *)

  val observe : ?trace_id:string -> t -> float -> unit
  (** Record an observation. With [trace_id], the bucket the value lands
      in remembers it as its latest {!exemplar} (one wall-clock read —
      pass it on request paths, not in inner loops). *)

  val count : t -> int
  val sum : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile h q] with [q] in [\[0, 1\]]: nearest-rank percentile over
      the stored window. [nan] when empty. *)

  val reset : t -> unit
end

(** {1 Timing switch} *)

val set_timing : bool -> unit
(** Enable clock reads for {!time}. Off by default. *)

val timing_on : unit -> bool

val time : Histogram.t -> (unit -> 'a) -> 'a
(** Run the thunk; when timing is on, observe its wall duration (seconds)
    into the histogram (also on exceptional exit). When off, just runs the
    thunk. Call sites on hot paths should guard with {!timing_on} to avoid
    even the closure allocation. *)

(** {1 Registry} *)

val counter : string -> Counter.t
(** Find-or-create the registered counter of that name.
    @raise Invalid_argument if the name is registered as another kind. *)

val gauge : string -> Gauge.t
val histogram : ?buckets:float array -> string -> Histogram.t

val counter_with : string -> (string * string) list -> Counter.t
(** [counter_with name labels] — find-or-create the series of family
    [name] with exactly [labels] (order-insensitive; they are sorted).
    The series appears in {!snapshot} as [name{k="v",…}]. *)

val histogram_with : ?buckets:float array -> string -> (string * string) list -> Histogram.t

type bucket = { le : float; cumulative : int; exemplar : exemplar option }
(** One cumulative bucket: observations [<= le] ([le] is [infinity] for
    the overflow bucket), and the latest exemplar that landed in this
    bucket's bin, if any observation carried a trace id. *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
      max : float;
      buckets : bucket list;
    }

val snapshot : ?all:bool -> unit -> (string * value) list
(** Every registered metric, sorted by (labelled) series name. With
    [~all:false], histograms that were never observed (count 0 — e.g.
    latency histograms when timing is off) are omitted; counters and
    gauges always appear, zero or not. Default [true]. *)

val find : string -> value option
(** Look up by full series name — [name] for unlabelled metrics,
    [name{k="v"}] (labels sorted by key) for labelled ones. *)

val counter_value : string -> int
(** Value of a registered counter; [0] when absent (or not a counter). *)

val pp_table : ?all:bool -> Format.formatter -> unit -> unit
(** Human-readable two-column table of {!snapshot}. [all] as in
    {!snapshot}; defaults to [false] (untouched histograms omitted). *)

(** {1 Machine exposition} *)

val to_json : ?all:bool -> unit -> Jsonv.t
(** The snapshot as a JSON array of
    [{"name", "kind", …value fields…}] objects (the shape
    [BENCH_tpan.json] uses). Histograms carry their touched buckets
    (cumulative counts, exemplar trace ids). [all] defaults to
    [false]. *)

val to_openmetrics : ?all:bool -> unit -> string
(** OpenMetrics 1.0 text exposition of the snapshot. Metric names are
    sanitized ([.] and other non-name characters become [_]) and
    prefixed with [tpan_]; counters expose a [_total] sample per
    labelled series, gauges a plain sample, histograms an OpenMetrics
    [histogram] family: explicit cumulative [_bucket{le="…"}] samples
    (exemplars attached as [# {trace_id="…"} value ts]), then [_count]
    and [_sum]. Families with several label sets emit one [# TYPE]
    line. Ends with [# EOF]. [all] defaults to [false]. *)
