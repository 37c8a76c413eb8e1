(** Fourier–Motzkin elimination over the rationals.

    Decides feasibility and entailment for conjunctions of linear
    constraints with strict and non-strict inequalities — the decision
    procedure behind symbolic timed-reachability construction: given the
    net's timing constraints, we must prove which remaining time is smallest
    (paper §3, "evaluating the smallest value in a set of expressions, given
    a set of timing constraints").

    Complexity is worst-case exponential in the number of variables, which is
    fine here: protocol nets carry a handful of time symbols. *)

(** Affine forms [Σ cᵢ·xᵢ + const] over integer-identified variables. *)
module Linform : sig
  type t

  val const : Q.t -> t
  val var : int -> t
  val of_list : (int * Q.t) list -> Q.t -> t
  val zero : t

  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : Q.t -> t -> t
  val neg : t -> t

  val constant : t -> Q.t
  val coeff : int -> t -> Q.t
  val coeffs : t -> (int * Q.t) list
  (** Non-zero coefficients, in increasing variable order. *)

  val is_const : t -> bool
  val vars : t -> int list
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  val eval : (int -> Q.t) -> t -> Q.t

  val pp : ?name:(int -> string) -> Format.formatter -> t -> unit
end

type relation =
  | Ge  (** form ≥ 0 *)
  | Gt  (** form > 0 *)
  | Eq  (** form = 0 *)

type constr = { form : Linform.t; rel : relation }

val ge : Linform.t -> Linform.t -> constr
(** [ge a b] is the constraint [a ≥ b]. *)

val gt : Linform.t -> Linform.t -> constr
val eq : Linform.t -> Linform.t -> constr

val satisfies : (int -> Q.t) -> constr -> bool

val feasible : constr list -> bool
(** Is there a rational assignment satisfying every constraint? *)

val normalize_system : constr list -> constr list option
(** Split equalities into inequality pairs, scale every inequality to a
    canonical direction, collapse proportional constraints to the strongest
    one and drop satisfied constant constraints. [None] when a constant
    constraint is violated (the system is trivially infeasible). The result
    is equivalent to the input. *)

val find_model : constr list -> (int * Q.t) list option
(** A rational model of the system, or [None] if infeasible. Variables
    absent from the returned assignment are implicitly [0]. Where a
    variable's feasible interval is wide the midpoint is chosen, so the
    model tends to lie in the interior of the feasible region. *)

val entails : constr list -> constr -> bool
(** [entails cs c]: does every model of [cs] satisfy [c]? *)

type comparison =
  | Always_lt
  | Always_eq
  | Always_gt
  | Unknown  (** the constraints do not determine the order *)

val compare_forms : constr list -> Linform.t -> Linform.t -> comparison
(** Trichotomy of two forms under a constraint set: [Always_lt] means the
    first is strictly smaller in {e every} model. [Unknown] is the
    "prompt the designer for a constraint" outcome of the paper. *)
