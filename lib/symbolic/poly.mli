(** Sparse multivariate polynomials over {!Tpan_mathkit.Q} with {!Var}
    indeterminates.

    These are the numerators/denominators of branching-probability
    expressions: at a decision state the probability of firing [t] is
    [f(t) / Σ f(t')] (paper §1), so every probability that decision-graph
    analysis manipulates is a rational function of the frequency symbols. *)

type t

val zero : t
val one : t
val const : Tpan_mathkit.Q.t -> t
val of_int : int -> t
val var : Var.t -> t
val of_linexpr : Linexpr.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val pow : t -> int -> t
val scale : Tpan_mathkit.Q.t -> t -> t

val is_zero : t -> bool
val is_const : t -> bool
val to_q_opt : t -> Tpan_mathkit.Q.t option
val degree : t -> int
(** Total degree; [degree zero = -1]. *)

val size : t -> int
(** Number of monomials. *)

val vars : t -> Var.t list

val subst : (Var.t -> t option) -> t -> t

val fold : ((Var.t * int) list -> Tpan_mathkit.Q.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the terms: each monomial as a [(variable, exponent)] list
    (exponents ≥ 1) with its coefficient. Generalizes evaluation to any
    semiring (interval arithmetic, floats, …). *)

val derivative : Var.t -> t -> t
(** Formal partial derivative. *)

val gcd : t -> t -> t
(** Greatest common divisor in ℚ[x₁…xₙ], computed by the primitive
    Euclidean algorithm (recursing through the variables, pseudo-division
    in the main variable). Normalized monic (leading deglex coefficient 1);
    [gcd p 0 = monic p]; [gcd 0 0 = 0]. Non-trivial GCDs are what lets
    {!Ratfun} fully cancel symbolic probabilities and rates. *)

val divide_exact : t -> t -> t option
(** [divide_exact p d] is [Some q] iff [p = q·d] exactly.
    @raise Division_by_zero if [d] is zero. *)

val monic_factor : t -> Tpan_mathkit.Q.t * t
(** [monic_factor p = (c, m)] with [p = c·m] and [m]'s leading coefficient 1
    (for non-zero [p]). *)

val equal : t -> t -> bool
(** Pointer-first: values are hash-consed per domain, so the common case
    is one physical comparison; a structural check covers values interned
    on different domains. *)

val compare : t -> t -> int

val hash : t -> int
(** O(1): the structural hash is computed once at interning time. *)

val interned : unit -> int
(** Live entries in the calling domain's intern table. The table is weak:
    the count shrinks as unreferenced polynomials are collected. *)

val pp : Format.formatter -> t -> unit
