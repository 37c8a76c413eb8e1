(** Exact sparse linear-system solving over an arbitrary field, in row
    form.

    Rate-balance and Markov steady-state systems are sparse: a reachability
    state has a handful of successors, so each balance equation touches a
    handful of unknowns out of thousands. Callers assemble each equation
    as a list of (column, coefficient) pairs, and no n×n matrix is ever
    materialized; rows stay sorted lists and pivots are picked
    Markowitz-style (sparsest column, then shortest row) to limit fill-in.
    Every ℚ Markov solve in the library goes through {!Make.solve_rows}.

    Over an exact field a unique solution is unique: {!Linsolve}, the
    dense Gauss–Jordan kept as the reference the tests compare against,
    yields bit-identical [Unique] vectors and the same
    [Underdetermined]/[Inconsistent] classification (both are rank facts
    of the system, not of the elimination order). *)

module Make (F : Linsolve.FIELD) : sig
  type outcome =
    | Unique of F.t array
    | Underdetermined
    | Inconsistent

  val solve_rows : ncols:int -> (int * F.t) list array -> F.t array -> outcome
  (** [solve_rows ~ncols rows b] solves the system whose [i]-th equation is
      [Σ coeff·x(col) = b.(i)] for the [(col, coeff)] pairs in [rows.(i)].
      Rows need not be sorted; duplicate columns are summed and zero
      coefficients dropped. Inputs are not mutated. Runs one
      {!Tpan_obs.Cancel.checkpoint} per pivot.
      @raise Invalid_argument on a column index outside [0, ncols) or a
      length mismatch between [rows] and [b]. *)
end
