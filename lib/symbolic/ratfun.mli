(** Rational functions (quotients of {!Poly}) — the field in which symbolic
    branching probabilities and traversal rates live.

    Arithmetic keeps a light normal form: monic denominator and
    exact-division cancellation, no gcd. {!equal} is nevertheless exact
    because it cross-multiplies. Lowest terms come from {!reduce}, which
    cancels the full gcd at any size, and {!pp} prints them, so every
    printed value is the canonical one. Expression growth is kept down
    where it starts: the rate solve works over ℚ[x] and hands the closed
    forms one small gcd (see [Tpan_perf.Rates]). *)

type t

val zero : t
val one : t
val of_poly : Poly.t -> t
val of_q : Tpan_mathkit.Q.t -> t
val of_int : int -> t
val var : Var.t -> t

val make : Poly.t -> Poly.t -> t
(** [make num den]. @raise Division_by_zero if [den] is the zero
    polynomial. *)

val num : t -> Poly.t
val den : t -> Poly.t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val inv : t -> t

val is_zero : t -> bool
val is_const : t -> bool
val to_q_opt : t -> Tpan_mathkit.Q.t option

val eval : (Var.t -> Tpan_mathkit.Q.t) -> t -> Tpan_mathkit.Q.t
(** The exact value at a point. Runs the node's compiled program: one
    integer sum each for numerator and denominator over a common
    denominator, one gcd at the end. The program is compiled on first use
    and memoised on the node. [env] is called once per variable, the
    denominator's first.
    @raise Not_found if [env] does (a denominator variable's first).
    @raise Division_by_zero if the denominator vanishes at the point,
    before any numerator-only variable is looked up. *)

val subst : (Var.t -> Poly.t option) -> t -> t

val derivative : Var.t -> t -> t
(** Quotient rule: [(p/q)' = (p'q - pq') / q²]. *)

val reduce : t -> t
(** Cancel the full polynomial GCD of numerator and denominator (value
    unchanged): lowest terms with a monic denominator, the unique
    representation of the value. Arithmetic keeps only a light normal form
    for speed; apply this to final results. There is no size limit, so
    the cost is that of {!Poly.gcd} on the operands. The result's
    evaluation program is compiled before it is returned, so a cache that
    weighs the value charges the program too. *)

val equal : t -> t -> bool
(** Exact value equality (cross-multiplies), with pointer and
    representation fast paths first — hash-consing makes those the common
    case for values built on one domain. *)

val interned : unit -> int
(** Live entries in the calling domain's intern table (weak: shrinks as
    values are collected). *)

val pp : Format.formatter -> t -> unit
(** Prints the lowest-terms form, whatever the representation: values
    that are {!equal} print the same bytes. *)
