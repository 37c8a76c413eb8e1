(** Parallel parameter-sweep engine.

    A sweep evaluates performance measures over the cartesian grid of one
    or more {!axis} ranges. Grid points are laid out row-major (last axis
    varies fastest) and evaluated on a {!Tpan_par.Pool}; because each point
    is an independent exact-ℚ analysis and results land in input order, the
    sweep table — and its CSV/JSON renderings — are byte-identical for any
    jobs count.

    Two evaluation modes:
    - {!over_tpn}: rebuild a concrete net per point and run the full
      decision-graph analysis (the expensive, always-available path);
    - {!over_expr}: evaluate pre-derived closed-form symbolic measures at
      each point (cheap — this is the paper's main selling point for
      symbolic derivation). *)

module Q = Tpan_mathkit.Q
module Error = Tpan_core.Error

type axis = { name : string; lo : Q.t; hi : Q.t; steps : int }
(** [steps] grid points spread evenly (exactly, in ℚ) over [lo..hi]
    inclusive; [steps = 1] degenerates to the single point [lo]. *)

val parse_axis : string -> (axis, string) result
(** Parse a ["NAME=LO..HI:STEPS"] grid spec (e.g. ["timeout=80..200:8"]).
    Values take the same decimal/rational syntax as [-p] bindings. *)

val points : axis list -> (string * Q.t) list list
(** Row-major cartesian product: the last axis varies fastest. Each point
    is an association list in axis order. *)

type row = {
  point : (string * Q.t) list;
  values : (string * Q.t) list;  (** column name → value; [[]] on error *)
  error : Error.t option;
}

type t = { axes : axis list; columns : string list; rows : row list }

val over_tpn :
  ?jobs:int ->
  ?max_states:int ->
  make:((string * Q.t) list -> Tpan_core.Tpn.t) ->
  throughputs:string list ->
  axis list ->
  t
(** For each grid point, build a fresh net with [make point], run the
    timed-reachability + decision-graph + rate analysis, and record
    [thr(t)] for each transition in [throughputs] plus [mean_cycle_time].
    Failures ([make] rejecting a parameter, state-budget overflow,
    unsolvable rates, …) are captured per row, so one bad point doesn't
    lose the grid. A cancellation is not a point's failure: grid
    generation and every point poll {!Tpan_obs.Cancel.checkpoint}, and
    [Cancelled] aborts the whole sweep. *)

val over_expr :
  ?jobs:int ->
  bindings:(string * Q.t) list ->
  exprs:(string * Tpan_symbolic.Ratfun.t) list ->
  axis list ->
  t
(** For each grid point, evaluate each named closed-form measure at
    [bindings ∪ point] (point wins on clashes). Axis names are variable
    display names (["E(t3)"], ["f(t4)"], …). A row's error is the one
    {!Measures.Symbolic.eval} gives at its point, the one [/eval] gives
    there; cancellation as in {!over_tpn}. *)

val to_csv : t -> string
(** Header then one line per row: point coordinates, then columns (empty
    cells on error), then an [error] column. Deterministic. *)

val fields : t -> (string * Tpan_obs.Jsonv.t) list
(** The table's payload fields ([axes], [columns], [rows]) with every
    rational exact, as a [Q.to_string] string; the caller's envelope
    wraps them. *)

val pp : Format.formatter -> t -> unit
(** Aligned human-readable table. *)
