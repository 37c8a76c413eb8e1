(** Exact dense linear-system solving over an arbitrary field.

    The library solves its Markov chains elsewhere: over ℚ by
    {!Sparse.Make.solve_rows}, over rational functions by the
    fraction-free {!Bareiss} solve. This Gauss–Jordan elimination is the
    dense reference the tests compare those solvers against; {!FIELD} is
    the field signature {!Sparse} shares. *)

module type FIELD = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

module Make (F : FIELD) : sig
  type outcome =
    | Unique of F.t array
    | Underdetermined
    | Inconsistent

  val solve : F.t array array -> F.t array -> outcome
  (** [solve a b] solves [a · x = b] by Gauss–Jordan elimination with a
      first-nonzero pivot (valid over any exact field). [a] is an array of
      rows; inputs are not mutated.
      @raise Invalid_argument on ragged or mismatched dimensions. *)
end
