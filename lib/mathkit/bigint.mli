(** Arbitrary-precision signed integers.

    Self-contained replacement for [zarith]. A value whose magnitude fits
    a native [int], that is [-max_int <= n <= max_int], is held as that
    [int], and arithmetic on two such values runs natively with an overflow
    test. Only values beyond 62 bits, [min_int] included, are held as
    little-endian arrays of 15-bit limbs, which keeps every intermediate of
    schoolbook multiplication and Knuth algorithm-D division comfortably
    inside a 63-bit native [int]. A limb result that fits comes back as an
    [int], so each value has exactly one representation.

    Values are immutable; all functions are pure. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [None] if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Decimal, with optional leading [-]. @raise Invalid_argument on bad
    input. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r] and
    [sign r = sign a] (or [r = 0]), [|r| < |b|].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val pow : t -> int -> t
(** [pow b n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

val is_zero : t -> bool
val is_one : t -> bool

val to_float : t -> float

val pp : Format.formatter -> t -> unit
