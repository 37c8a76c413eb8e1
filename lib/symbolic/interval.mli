(** Closed rational intervals and conservative interval arithmetic.

    The paper's conclusion lists "nets which allow ranges of firing times"
    as future work. Once a symbolic performance expression exists, ranges
    come almost for free on the {e evaluation} side: evaluating the
    expression over intervals bounds the measure over every delay assignment
    in the box. The arithmetic is conservative (no sub-distributivity
    tricks), so bounds are valid though not always tight. *)

module Q = Tpan_mathkit.Q

type t = { lo : Q.t; hi : Q.t }

val make : Q.t -> Q.t -> t
(** @raise Invalid_argument if [hi < lo]. *)

val point : Q.t -> t
val of_ints : int -> int -> t

val contains : t -> Q.t -> bool
val is_point : t -> bool
val width : t -> Q.t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero if the divisor contains 0. *)

val pow : t -> int -> t
(** Tight for even powers of sign-spanning intervals. *)

val join : t -> t -> t
(** Smallest interval containing both. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val eval_ratfun : (Var.t -> t) -> Ratfun.t -> t
(** @raise Division_by_zero if the denominator's interval contains 0. *)
