(** Memoizing constraint oracle: the one object through which all symbolic
    ordering queries of a net should go.

    {!Constraints.compare_exprs} and friends rebuild the whole
    Fourier–Motzkin system and re-eliminate from scratch on every call —
    the dominant cost of symbolic TRG construction, where the same handful
    of difference expressions is re-decided at every state. The oracle does
    the system-building work once and the elimination work at most once per
    distinct query:

    - {b Preprocessing}: equalities are substituted away (each equality
      defines one variable in terms of the others), the remaining
      inequalities are scaled, deduplicated and joined with the
      non-negativity closure of every time symbol, once.
    - {b Witness filter}: one rational interior point of the feasible
      region is extracted up front; an entailment query whose goal the
      witness already violates is refuted by a single evaluation, with no
      elimination at all.
    - {b Memo table}: verdicts are cached keyed on the canonicalized
      difference form, so re-decisions — the common case in the
      advance-successor tournament — are hash lookups.

    Verdicts agree exactly with the direct {!Constraints} procedures,
    including on inconsistent systems (where everything is vacuously
    entailed). *)

type t

val make : Constraints.t -> t
(** Preprocess a constraint system. *)

val compare_exprs : t -> Linexpr.t -> Linexpr.t -> Constraints.comparison
(** Same verdicts as {!Constraints.compare_exprs}. *)

val entails : t -> Constraints.relation -> Linexpr.t -> Linexpr.t -> bool
(** Same verdicts as {!Constraints.entails}. *)

val is_consistent : t -> bool

val witness : t -> (Var.t * Tpan_mathkit.Q.t) list option
(** The interior point found during preprocessing, for inspection. [None]
    when the system is inconsistent. Variables absent from the list were
    assigned their default (see {!make}). *)

(** {1 Statistics}

    Counters since construction (or the last {!reset_stats}):
    - [queries]: primitive entailment questions asked (a comparison asks
      up to four);
    - [trivial]: answered structurally (constant difference), nothing
      consulted;
    - [hits]/[misses]: memo-table outcomes for the non-trivial rest;
    - [witness_refutations]: misses answered by evaluating the witness
      point, avoiding elimination;
    - [fm_runs]: Fourier–Motzkin feasibility checks actually executed;
    - [baseline_fm_runs]: checks the direct (uncached) procedure would
      have executed for the same queries — the denominator of the
      speedup claim. *)

type stats = {
  queries : int;
  trivial : int;
  hits : int;
  misses : int;
  witness_refutations : int;
  fm_runs : int;
  baseline_fm_runs : int;
}

val stats : t -> stats
val reset_stats : t -> unit
val pp_stats : Format.formatter -> stats -> unit
