(** Leveled structured logging.

    A log record is a message plus typed key/value fields, stamped with
    the wall clock, a level and the emitting domain's trace lane. Records
    flow to pluggable {e sinks}; two are provided: a human-readable
    stderr renderer and an NDJSON writer (one JSON object per line,
    machine-parseable with {!Jsonv.of_string}).

    With no sinks installed (the default) the emit functions cost one
    branch — libraries can log unconditionally and stay silent until an
    application opts in.

    {b Domains.} Any domain may log. Every record passes through the
    sinks under one sink lock, so records from concurrent domains (pool
    workers, serve's connection domains) never interleave mid-line and
    reach the sinks in emission order. A sink must not itself log. *)

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
