(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    coprime with the numerator; zero is [0/1]. Exactness matters for the
    analysis: timed-reachability states are deduplicated by comparing
    remaining times, and 106.7 ms must compare equal to 1067/10 every time. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den]. @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t

val of_bigint : Bigint.t -> t

val of_decimal_string : string -> t
(** Parses ["-12.375"], ["1067/10"], ["42"].
    @raise Invalid_argument on malformed input, or on one longer than
    1,000 characters (parsing is quadratic in the length). *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val min : t -> t -> t
val max : t -> t -> t

val to_float : t -> float

val to_string : t -> string
(** ["7/2"], or just ["3"] when the denominator is 1. *)

val pp : Format.formatter -> t -> unit

val pp_decimal : ?digits:int -> Format.formatter -> t -> unit
(** Decimal rendering, exact when possible, rounded to [digits] (default 6)
    fractional digits otherwise; trailing zeros trimmed. *)
