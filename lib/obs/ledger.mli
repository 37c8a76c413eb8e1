(** The run ledger: an append-only NDJSON history of CLI invocations
    and served requests.

    Every opted-in [tpan] run appends one {!record} — subcommand, argv,
    model, per-stage timings from the profiler spans, a metrics
    snapshot, exit code, wall duration, build version — to
    [<dir>/runs.ndjson] (default directory [.tpan], overridable with the
    [TPAN_DIR] environment variable). [tpan serve] appends one row per
    request, whose [request] object is the request's only
    persisted record. [tpan runs] queries both.

    The file is plain {!Ndjson}: greppable, appendable from concurrent
    processes, and forward-compatible — records carry a [schema] number,
    keys a reader does not know are ignored, and unparseable lines are
    skipped on load instead of failing the query. *)

type stage = { stage : string; seconds : float; count : int }
(** Aggregated span totals, as returned by {!stage_totals}. *)

type record = {
  schema : int;  (** record schema version, currently 1 *)
  version : string;  (** build version of the writing binary *)
  timestamp : float;  (** start of the run, Unix seconds *)
  subcommand : string;
  argv : string list;  (** full command line, program name included *)
  model : string option;  (** builtin model name, when one was used *)
  trace_id : string option;
      (** the run's {!Context.trace_id}, correlating the ledger row with
          spans, log records and flight-recorder dumps *)
  stages : stage list;
  metrics : Jsonv.t;  (** a {!Metrics.to_json} snapshot *)
  report : Jsonv.t option;
      (** last analysis-facade report of the run, when one completed *)
  request : Jsonv.t option;
      (** a served request's HTTP facts: [method], [path], [status],
          [body_bytes], [resp_bytes], [net_hash], [deadline_budget_s] and
          [deadline_consumed]; absent (and not written) on CLI rows *)
  exit_code : int;
  duration : float;  (** wall seconds *)
}

val schema_version : int

val make :
  version:string ->
  timestamp:float ->
  subcommand:string ->
  argv:string list ->
  ?model:string ->
  ?trace_id:string ->
  ?stages:stage list ->
  ?metrics:Jsonv.t ->
  ?report:Jsonv.t ->
  ?request:Jsonv.t ->
  exit_code:int ->
  duration:float ->
  unit ->
  record
(** [schema] is filled with {!schema_version}. *)

val stage_totals : Trace.event list -> stage list
(** Aggregate events by name — total seconds and count — sorted by
    name: a CLI run's whole trace buffer, or one request's span tree. *)

val to_json : record -> Jsonv.t
val of_json : Jsonv.t -> record option

val default_dir : unit -> string
(** [$TPAN_DIR] when set and non-empty, else [".tpan"]. *)

val runs_file : string -> string
(** [runs_file dir] is the ledger path under [dir]. *)

val append : ?dir:string -> record -> (unit, string) result
(** Append one record with {!Ndjson.append} (creating the directory and
    file as needed). *)

val load : ?dir:string -> unit -> (record list, string) result
(** All parseable records, oldest first. An absent file is [Ok []]. *)

(** {1 Aggregate statistics}

    The analytics behind [tpan runs --stats]: wall-time percentiles per
    subcommand and per pipeline stage, plus the exit-code breakdown. *)

type stats_row = {
  key : string;  (** subcommand or stage name *)
  runs : int;
  p50 : float;  (** nearest-rank median, seconds *)
  p95 : float;
  total : float;
}

type stats = {
  commands : stats_row list;  (** per-subcommand run durations *)
  stage_stats : stats_row list;  (** per-stage span totals *)
  exit_codes : (int * int) list;  (** exit code → run count *)
}

val stats : record list -> stats
val stats_to_json : stats -> Jsonv.t
val pp_stats : Format.formatter -> stats -> unit
