(** Fraction-free (Bareiss) linear-system solving over an integral domain.

    Gaussian elimination over the fraction field of a ring (ℚ(x) over
    ℚ[x]) builds every entry as a quotient and lets numerators and
    denominators swell with common factors that only a gcd removes.
    Bareiss's one-step elimination stays in the ring: each update
    [a_ij ← (p·a_ij − a_ik·a_kj) / p_prev] divides by the previous pivot
    exactly, because every intermediate entry is a minor of the input.
    The answer comes back as Cramer's rule does: a vector [x] and a
    scalar [d] with [a·x = d·b], where [d] is [±det a] and [x_i] the
    matching [±det] of [a] with column [i] replaced by [b]. *)

module type RING = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val sub : t -> t -> t
  val mul : t -> t -> t

  val divide_exact : t -> t -> t option
  (** [divide_exact p d] is [Some q] iff [p = q·d]. *)
end

module Make (R : RING) : sig
  val solve : R.t array array -> R.t array -> (R.t array * R.t) option
  (** [solve a b] for a square [a] is [Some (x, d)] with [a·x = d·b] and
      [d ≠ 0], or [None] if [a] is singular. Row pivots are the first
      non-zero entry at or below the diagonal. Runs one
      {!Tpan_obs.Cancel.checkpoint} per pivot column; inputs are not
      mutated.
      @raise Failure if a division is not exact, which a ring without
      zero divisors never produces.
      @raise Invalid_argument on a non-square [a] or a mismatched [b]. *)
end
