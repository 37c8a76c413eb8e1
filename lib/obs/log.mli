(** Leveled structured logging.

    A log record is a message plus typed key/value fields, stamped with
    the wall clock, a level and the emitting domain's trace lane. Records
    flow to pluggable {e sinks}; two are provided: a human-readable
    stderr renderer and an NDJSON writer (one JSON object per line,
    machine-parseable with {!Jsonv.of_string}).

    With no sinks installed (the default) the emit functions cost one
    branch — libraries can log unconditionally and stay silent until an
    application opts in.

    {b Domains.} Sinks are only ever driven from the domain that
    installed them. A pool worker calls {!Local.install} before running
    tasks; from then on its records accumulate in a domain-local buffer,
    which the joining domain collects ({!Local.collect}) and replays
    through the sinks ({!flush_records}) after the join —
    [Tpan_par.Pool] does all of this automatically, exactly as it does
    for {!Metrics} deltas. Records therefore never interleave mid-line,
    at the price of worker logs appearing at join time (their [ts] field
    keeps the true emission time). *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option

type field = string * Jsonv.t

type record = {
  ts : float;  (** absolute wall-clock seconds (Unix epoch) *)
  level : level;
  msg : string;
  lane : int;  (** {!Trace.current_lane} of the emitting domain *)
  trace_id : string option;
      (** owning request's {!Context.trace_id}, when one is installed *)
  fields : field list;
}

(** {1 Emission} *)

val debug : ?fields:field list -> string -> unit
val info : ?fields:field list -> string -> unit
val warn : ?fields:field list -> string -> unit
val error : ?fields:field list -> string -> unit

val enabled : level -> bool
(** True when a record at that level would reach at least one sink —
    guard field construction on hot paths. *)

(** {1 Sinks} *)

type sink = record -> unit

val stderr_sink : record -> unit
(** Human-readable one-liner:
    [12:03:45.123 WARN sweep.point failed (point=3 error="…")]. *)

val ndjson_sink : out_channel -> sink
(** One JSON object per line:
    [{"ts":…,"level":"info","msg":…,"lane":0,"fields":{…}}]. The caller
    owns the channel (and its closing). *)

val set_sinks : (level * sink) list -> unit
(** Replace all sinks ([(min_level, sink)] pairs). [set_sinks []]
    silences logging. *)

(** {1 Per-domain buffers} *)

module Local : sig
  val install : unit -> unit
  (** Redirect this domain's records into a fresh buffer. *)

  val collect : unit -> record list
  (** Detach the buffer and return its records in emission order.
      @raise Invalid_argument if no buffer is installed. *)
end

val flush_records : record list -> unit
(** Replay collected records through the installed sinks (call after
    the join, on the sink-owning domain). *)
