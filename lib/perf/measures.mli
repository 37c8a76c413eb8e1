(** Performance measures derived from solved rate equations (paper §4):
    throughput, relative time per edge, utilization, cycle times.

    All relative rates are turned absolute by dividing by
    [total_weight = Σ r_e·d_e], the mean time per normalized cycle. Each
    measure that divides by it raises [Rates.Unsolvable] when the
    recurrent cycle takes no time ([total_weight = 0]). *)

module Net = Tpan_petri.Net

val transition : Tpan_core.Tpn.t -> string -> Net.trans
(** The net's transition of that name.
    @raise Invalid_argument [unknown transition "name"] if there is none. *)

val throughput_of_transition :
  ('t, 'p, 'f) Rates.result -> by:[ `Fired | `Completed ] -> Net.trans -> 'f
(** Long-run firings (or completions) of the transition per unit time:
    [Σ_{e ∋ t} r_e·count / Σ w]. The paper's protocol throughput is the
    completion rate of the successful-delivery transition. *)

val edge_time_share :
  ('t, 'p, 'f) Rates.result -> (('t, 'p) Decision_graph.dedge -> bool) -> 'f
(** Fraction of time spent on the selected edges ([Σ w_e / Σ w] — the
    paper's relative-time measure, normalized). *)

val mean_time_between_visits : ('t, 'p, 'f) Rates.result -> int -> 'f
(** Expected time between successive entries of a decision node:
    [Σ w / v(n)]. *)

val mean_cycle_time : ('t, 'p, 'f) Rates.result -> 'f
(** [Σ w]: mean time per visit of the normalization node. *)

(** Exact concrete analysis over ℚ. *)
module Concrete : sig
  type result = (Tpan_mathkit.Q.t, Tpan_mathkit.Q.t, Tpan_mathkit.Q.t) Rates.result

  val analyze : ?normalize_at:int -> Tpan_core.Concrete.Graph.graph -> result
  (** Decision graph + solved rates.
      @raise Rates.Unsolvable *)

  val throughput : result -> Tpan_core.Concrete.Graph.graph -> string -> Tpan_mathkit.Q.t
  (** Completions of the named transition per unit time.
      @raise Invalid_argument for an unknown transition name *)

  val utilization :
    result ->
    graph:Tpan_core.Concrete.Graph.graph ->
    (Tpan_mathkit.Q.t Tpan_core.Semantics.state -> bool) ->
    Tpan_mathkit.Q.t
  (** Long-run fraction of time spent in reachability-graph states
      satisfying the predicate (time is attributed to the state an
      advance-edge leaves from). *)
end

(** Symbolic analysis: measures as rational functions of the net's
    symbols. *)
module Symbolic : sig
  type result =
    (Tpan_symbolic.Linexpr.t, Tpan_symbolic.Ratfun.t, Tpan_symbolic.Ratfun.t) Rates.result

  val analyze : ?normalize_at:int -> Tpan_core.Symbolic.Graph.graph -> result

  val throughput : result -> Tpan_core.Symbolic.Graph.graph -> string -> Tpan_symbolic.Ratfun.t
  (** The paper's headline deliverable: a closed-form throughput expression
      in the net's time and frequency symbols.
      @raise Invalid_argument for an unknown transition name *)

  val eval_at :
    Tpan_symbolic.Ratfun.t -> (string * Tpan_mathkit.Q.t) list -> Tpan_mathkit.Q.t
  (** Evaluate a symbolic measure at a concrete point; keys are variable
      display names (["E(t3)"], ["f(t4)"], …).
      @raise Not_found for a missing variable
      @raise Division_by_zero if the denominator vanishes *)

  val eval :
    Tpan_symbolic.Ratfun.t ->
    (string * Tpan_mathkit.Q.t) list ->
    (Tpan_mathkit.Q.t, Tpan_core.Error.t) Stdlib.result
  (** {!eval_at} with its two failures as values, the ones [/eval] and
      every sweep row report: [Invalid_input] naming the unbound
      variables (["point misses variable bindings: E(t3), f(t4)"]), and
      [Unsupported] when the denominator vanishes. *)

  val bound :
    Tpan_symbolic.Ratfun.t list -> string list -> (unit, Tpan_core.Error.t) Stdlib.result
  (** [Ok ()] when [names] bind every variable of the measures, else
      {!eval}'s [Invalid_input] naming the ones they miss: a sweep checks
      its grid with it before evaluating any point. *)

  val subst_frequencies :
    Tpan_symbolic.Ratfun.t -> (string * Tpan_mathkit.Q.t) list -> Tpan_symbolic.Ratfun.t
  (** Partially substitute (typically the frequency symbols, to reproduce
      the paper's 5%-loss specialization) leaving other symbols free. *)

  type sensitivity = {
    var : Tpan_symbolic.Var.t;
    gradient : Tpan_mathkit.Q.t;  (** [∂m/∂v] at the point *)
    elasticity : Tpan_mathkit.Q.t;
        (** [(v/m)·∂m/∂v]: percent change of the measure per percent change
            of the parameter — unit-free, so parameters are comparable *)
  }

  val sensitivities :
    Tpan_symbolic.Ratfun.t -> at:(string * Tpan_mathkit.Q.t) list -> sensitivity list
  (** Exact symbolic differentiation of a measure with respect to every
      variable it mentions, evaluated at a point; sorted by decreasing
      |elasticity| — "which parameter matters most", the design question
      closed-form expressions exist to answer.
      @raise Not_found if the point misses a variable
      @raise Division_by_zero on a pole or a zero measure value *)
end
