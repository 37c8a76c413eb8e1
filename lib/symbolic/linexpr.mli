(** Affine (linear) expressions over {!Var} with rational coefficients.

    Every time quantity in a timed reachability graph — remaining enabling
    times, remaining firing times, edge delays — is an affine combination of
    the net's time symbols: the successor procedure only ever subtracts the
    minimum and sums delays. Restricting to affine forms is therefore lossless
    and keeps comparison decidable by Fourier–Motzkin. *)

type t

val zero : t
val const : Tpan_mathkit.Q.t -> t
val of_int : int -> t
val var : Var.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : Tpan_mathkit.Q.t -> t -> t
val neg : t -> t

val is_const : t -> bool

val to_q_opt : t -> Tpan_mathkit.Q.t option
(** The value if the expression is constant. *)

val constant : t -> Tpan_mathkit.Q.t
val coeff : Var.t -> t -> Tpan_mathkit.Q.t
val vars : t -> Var.t list
val terms : t -> (Var.t * Tpan_mathkit.Q.t) list

val eval : (Var.t -> Tpan_mathkit.Q.t) -> t -> Tpan_mathkit.Q.t

val subst : (Var.t -> t option) -> t -> t
(** Replace variables by affine expressions; [None] keeps the variable. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_form : t -> Tpan_mathkit.Fourier_motzkin.Linform.t

val pp : Format.formatter -> t -> unit
