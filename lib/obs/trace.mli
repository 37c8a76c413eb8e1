(** Hierarchical spans.

    A span records a named region of execution: wall-clock start and
    duration, string key/value attributes, and child spans. Tracing is
    off by default; when disabled, {!with_span} runs the thunk against a
    shared dummy span and records no event — no clock read; it still
    maintains the domain's active span stack (one list cons) so
    diagnostic dumps work on untraced runs.

    Completed root spans accumulate in an in-process buffer; export them
    with {!write_ndjson} (one Chrome-trace-compatible ["X"] event per
    line) or render them with {!pp_tree}.

    {b Domains.} The completed-event buffer is shared and
    mutex-protected, so spans closed on a worker domain land in the same
    merged trace as the caller's (or in the same kept request's list,
    see {!keep_events}: a worker runs under its caller's context). Each event carries a {e lane} — 0 for
    the main domain, a small stable index for pool workers (set by
    [Tpan_par.Pool] via {!set_lane}) — exported as the Chrome [tid] so a
    parallel region renders as parallel tracks in the viewer. *)

type span

val set_enabled : bool -> unit
(** Also flips {!Metrics.set_timing} on/off so span-level and
    histogram-level timing stay consistent. *)

val enabled : unit -> bool

val with_span : string -> (span -> 'a) -> 'a
(** [with_span name f] runs [f sp] with a fresh span pushed on the
    current span stack; the span is closed (duration recorded, attached
    to its parent or to the root buffer) when [f] returns, including on
    exceptional exit. When tracing is disabled, [f] receives a dummy
    span and nothing is recorded. *)

val add_attr : span -> string -> string -> unit
(** Attach a key/value attribute. No-op on the dummy span. *)

val add_attr_int : span -> string -> int -> unit

(** {1 Lanes} *)

val set_lane : int -> unit
(** Set the current domain's lane id (domain-local; defaults to 0).
    [Tpan_par.Pool] gives worker [k] lane [k + 1], so lane assignment is
    deterministic per parallel region regardless of how many domains the
    process has ever spawned. *)

val current_lane : unit -> int

(** {1 Active span stacks}

    Maintained even with tracing disabled, so a diagnostic dump can
    report where every domain is at the instant of a deadline, stall,
    or [SIGUSR1] — those are exactly the runs that rarely enable full
    tracing. *)

val span_stacks : unit -> (int * string list) list
(** [(lane, open spans, innermost first)] for every live domain that
    has opened a span, sorted by lane; a domain's row is dropped when
    it exits. Reads of other domains' stacks are racy but safe —
    diagnostics-grade accuracy. *)

(** {1 Completed events} *)

type event = {
  name : string;
  start : float;  (** seconds since the trace epoch (module load) *)
  dur : float;  (** seconds *)
  depth : int;  (** 0 = root *)
  lane : int;  (** 0 = main domain; workers get small positive ids *)
  attrs : (string * string) list;
}

val events : unit -> event list
(** All completed spans of the shared list, in completion order
    (children before their parent, since a parent closes last). The
    events of a request kept with {!keep_events} are not in it until
    {!take_events} drains them. *)

val clear : unit -> unit
(** Drop buffered events, kept requests' included. Does not change
    {!enabled}. *)

val set_retention : int -> unit
(** Bound the shared completed-event list to roughly [n] events (oldest
    dropped first; trimming is amortized, so up to [2n] may be resident
    momentarily). [0] — the default — keeps everything, which is right
    for a CLI run that exports its trace at exit; a long-running server
    sets a cap so per-request tracing is not a slow leak. A request
    kept with {!keep_events} is never trimmed. *)

val keep_events : trace_id:string -> unit
(** Buffer the events tagged [trace_id] apart from the shared list, in
    a list of the request's own, until {!take_events} drains it: no
    retention trims them, however many there are, and no other
    request's push or drain touches them. Events tagged [trace_id] after
    the drain go to the shared list again. *)

val take_events : trace_id:string -> event list
(** Remove and return the events of a request kept with {!keep_events}
    (completion order — children first), ending its keeping; [[]] for a
    trace id that is not kept, whose events stay in the shared list. The
    serving layer keeps and then drains each request's span tree into
    its [/tracez] ring buffers this way. *)

val total_duration : string -> float
(** Sum of [dur] over completed events with that name; [0.] if none. *)

(** {1 Export} *)

val write_ndjson : out_channel -> unit
(** One JSON object per line, Chrome trace event format: [ph:"X"],
    [ts]/[dur] in microseconds, [tid] = lane, attributes under [args].
    Events are sorted by (lane, start, depth) so the line order is
    reproducible. A Chrome trace viewer loads the file as a JSON array
    after wrapping, and line-based tools can stream it. *)

val parse_line : string -> event option
(** Parse one NDJSON line written by {!write_ndjson} back into an
    {!event} ([ts]/[dur] converted back to seconds; [depth] read from
    the exported [args], [lane] from [tid]). [None] on malformed
    input. *)

val pp_tree : Format.formatter -> unit -> unit
(** Human-readable indented tree of the buffered events with durations
    in milliseconds. *)
