(** One query type for every surface.

    The CLI turns its argv into a {!t}, the server turns a request body
    into one, and both print what {!run} answers through {!to_json}. So
    the same query gives the same bytes through the library, [tpan …
    --json] and [POST /analyze], [/eval] or [/sweep], and every decision
    either surface used to make on its own is made here once: how a net
    is resolved, which sweep mechanism runs, which names a point, binding
    or axis may use, and which transitions a sweep reports by default.

    {[
      let q = Tpan.Query.Eval { net = Model { name = "stopwait"; params = [] };
                                max_states = None; transition = "t7"; point = [] } in
      let net_hash, outcome = Tpan.Query.run q in
      print_endline (Tpan_obs.Jsonv.to_string_hum (Tpan.Query.to_json ~net_hash outcome))
    ]} *)

module Q = Tpan_mathkit.Q

type net =
  | Model of { name : string; params : (string * Q.t) list }
      (** a builtin model with parameter overrides *)
  | Source of string  (** inline [.tpn] text, the socket's ["net"] *)
  | File of string  (** a [.tpn] file, the CLI's positional argument *)

type t =
  | Analyze of { net : net; max_states : int option; throughputs : string list }
      (** the concrete analysis report ({!Artifact.analysis}) *)
  | Eval of {
      net : net;
      max_states : int option;
      transition : string;
      point : (string * Q.t) list;
    }  (** the closed-form throughput at a point ({!Artifact.eval}) *)
  | Sweep of {
      net : net;
      max_states : int option;
      transitions : string list;
      bindings : (string * Q.t) list;
      axes : Tpan_perf.Sweep.axis list;
      jobs : int option;
    }  (** throughputs over a grid, in parallel on [jobs] lanes *)

type answer =
  | Report of Analysis.report
  | Value of string * Q.t  (** the transition and its throughput *)
  | Table of Tpan_perf.Sweep.t

val load : net -> (Tpan_core.Tpn.t, Error.t) result
(** The net itself: a builtin built with its parameter overrides, a
    parsed file or parsed inline text. *)

val run : t -> string option * (answer, Error.t) result
(** Resolve the net, canonicalize it and answer the query. The net hash
    comes back with the outcome, errors included; it is [None] only when
    the net itself failed to load.

    - An [Analyze] report names its model when the net is a [Model].
    - Every name of an eval [point] or of sweep [bindings] must be a
      symbol of the net ({!Tpan_check.Sampler.vars}), else
      [Invalid_input]: an unknown name would be ignored, and the answer
      would be that of another point.
    - A sweep of a builtin with parameters rebuilds the net at every grid
      point ({!Tpan_perf.Sweep.over_tpn}); its axes must name parameters.
      Any other net evaluates its cached closed forms
      ({!Tpan_perf.Sweep.over_expr}); its axes must name symbols, and a
      net with no symbols is refused. Axes and bindings together must
      bind every variable of the closed forms, so a sweep fails once,
      before its first point, with [/eval]'s message.
    - A sweep naming no transition reports the model's deliveries; a
      [File] or [Source] net must name at least one. *)

val envelope :
  kind:string ->
  net_hash:string option ->
  exit_code:int ->
  (string * Tpan_obs.Jsonv.t) list ->
  Tpan_obs.Jsonv.t
(** The schema-2 envelope of every machine document, CLI [--json] and
    server response alike: [{schema: 2, kind, trace_id, net_hash,
    exit_code, ...fields}], the trace id read from the ambient
    {!Tpan_obs.Context}. *)

val to_json : net_hash:string option -> (answer, Error.t) result -> Tpan_obs.Jsonv.t
(** The envelope of an outcome: kind ["analysis"], ["eval"] or ["sweep"]
    with exit code 0, or kind ["error"] with the error's exit code and
    message. *)
