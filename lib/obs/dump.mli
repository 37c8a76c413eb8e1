(** Flight-recorder frames: diagnostic snapshots of a running analysis,
    and the watchdog domain that takes them.

    A {!frame} captures, at one instant: every domain's active span
    stack ({!Trace.span_stacks} — maintained even with tracing off),
    per-domain checkpoint heartbeats ({!Cancel.heartbeats}), GC
    statistics, and the metrics registry. Frames round-trip through
    {!Jsonv} and append through {!Ndjson} to a {e flight file}; [kind] is
    ["frame"] for the watchdog's periodic records and ["dump"] for
    event-driven ones (deadline, stall, [SIGUSR1]). [tpan top] renders
    either kind, live or replayed. *)

type frame = {
  ts : float;  (** wall clock, Unix epoch *)
  uptime : float;  (** seconds since process start (module load) *)
  kind : string;  (** ["frame"] (periodic) or ["dump"] (event) *)
  reason : string option;  (** for dumps: what triggered it *)
  trace_id : string option;
  spans : (int * string list) list;
      (** per lane, open spans innermost first *)
  progress : (int * int) list;  (** domain id, checkpoint heartbeats *)
  gc : (string * float) list;
  metrics : Jsonv.t;  (** {!Metrics.to_json} array *)
}

val snapshot : ?kind:string -> ?reason:string -> ?trace_id:string -> unit -> frame
(** Capture the current process state. [kind] defaults to ["frame"].
    [trace_id] overrides the ambient {!Context.trace_id} — needed when
    the snapshot is taken on a domain (e.g. the watchdog) that never had
    the request's context installed. *)

val to_json : frame -> Jsonv.t
val of_json : Jsonv.t -> frame option

val append : string -> frame -> (unit, string) result
(** Append one line to the flight file with {!Ndjson.append}
    (concurrent appenders interleave whole lines). Creates the parent
    directory. *)

val load : string -> (frame list, string) result
(** All parseable frames, in file order. Missing file is [Ok \[\]];
    torn or foreign lines are skipped. *)

val progress_summary : frame -> (string * int) list
(** The partial-progress counters of the pipeline stages — interned
    states, edges, FM eliminations, simulator steps, … — extracted from
    the frame's metrics snapshot. Only counters that advanced appear. *)

val pp_frame : Format.formatter -> frame -> unit
(** Human-readable rendering: trigger, trace id, progress counters, one
    line per lane's span stack, heartbeats, GC headline. *)

(** {1 Watchdog}

    A dedicated domain that polls every [interval] seconds and:
    - writes a ["dump"] frame when {!install_sigusr1}'s flag is raised;
    - writes a ["dump"] frame when the checkpoint heartbeat sum has not
      advanced for [stall] seconds (once per stall episode);
    - cancels [token] when its deadline passes — covering loops wedged
      between checkpoints; the {!Cancel.set_on_cancel} hook is expected
      to write the deadline dump;
    - appends a periodic ["frame"] every [frame_every] seconds when
      [path] is given, for [tpan top] to tail. *)

type watchdog

val start_watchdog :
  ?interval:float ->
  ?stall:float ->
  ?frame_every:float ->
  ?path:string ->
  ?token:Cancel.token ->
  unit ->
  watchdog
(** [interval] defaults to 0.1s, [frame_every] to 1s; stall detection
    is off unless [stall] is given. *)

val stop_watchdog : watchdog -> unit
(** Signal the watchdog domain to exit and join it. *)

val install_sigusr1 : unit -> unit
(** Install a [SIGUSR1] handler that raises the watchdog's dump flag
    (the handler only sets an atomic; the watchdog does the IO). No-op
    on platforms without the signal. *)

val write_dump : ?trace_id:string -> string -> string -> unit
(** [write_dump path reason] appends a ["dump"] frame now (used by the
    cancellation hook and the CLI; failures are logged, not raised).
    [trace_id] pins the owning request's id when the caller may run on a
    context-less domain. *)
