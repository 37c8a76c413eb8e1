(** One-call analysis facade.

    [load] turns a net source into a {!Tpan_core.Tpn.t};
    {!Artifact.analysis} runs the whole concrete pipeline (timed
    reachability graph → decision graph → rate solve → measures) on its
    canonical form and returns a plain {!report} — every failure mode
    comes back as an {!Error.t} value, never an exception:

    {[
      let net = Tpan.Analysis.(load (Builtin "stopwait")) |> Result.get_ok in
      match Tpan.Artifact.analysis ~throughputs:[ "t7" ] (Tpan.Canonical.of_tpn net) with
      | Ok r -> …
      | Error e -> prerr_endline (Tpan.Error.to_string e)
    ]} *)

module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn

type source =
  | File of string  (** a [.tpn] description *)
  | Builtin of string  (** a {!Models} registry name *)

val load : ?params:(string * Q.t) list -> source -> (Tpn.t, Error.t) result
(** [params] are parameter overrides for a [Builtin] source (rejected — as
    [Invalid_input] — for the other sources, which carry no parameters). *)

type report = {
  model : string option;  (** builtin name, when known *)
  states : int;  (** timed reachability graph *)
  edges : int;
  decision_nodes : int;
      (** branching states plus renewal nodes (see {!Tpan_perf.Decision_graph}) *)
  mean_cycle_time : Q.t;
      (** mean time per visit of the normalization node; for a net whose
          long-run behaviour is one deterministic cycle, its period *)
  throughputs : (string * Q.t) list;  (** completions per unit time *)
}

val compute :
  ?max_states:int -> ?throughputs:string list -> Tpn.t -> (report, Error.t) result
(** The raw concrete pipeline, uncached and silent: TRG → decision
    graph → rate solve → measures. Concrete nets only ([Unsupported]
    for symbolic ones — bind their symbols first with
    {!Tpn.bind_times}). A deterministic cycle is one renewal node of
    the decision graph and is solved like any other; a net without a
    steady state is [Unsolvable].

    Callers normally want {!Artifact.analysis} (content-addressed,
    cached, notified) instead; [compute] is the function the artifact
    layer caches. *)

val notify : report -> report
(** Emit the analysis-complete log record and run the registered
    report hooks (returns its argument). The artifact layer calls this
    on every served report — cache hits included — so ledger rows
    always carry the report they served. *)

val add_report_hook : (report -> unit) -> unit
(** Observe every report {!notify} sees — the CLI's run ledger
    uses this to attach analysis summaries to run records. Hooks run on
    the calling domain; a raising hook is ignored. *)

val report_fields : report -> (string * Tpan_obs.Jsonv.t) list
(** The report's payload fields, envelope-free — the CLI wraps them in
    its versioned JSON envelope (schema 2: [schema], [trace_id],
    [net_hash], [exit_code] + payload). *)

val report_to_json : report -> Tpan_obs.Jsonv.t
(** Self-describing rendering ([{"schema": 1, "kind": "analysis", …}])
    — the shape run-ledger rows store as their report. *)
