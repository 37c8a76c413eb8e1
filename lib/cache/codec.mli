(** JSON codecs for the persisted values: exact rationals (analysis
    reports and point evaluations) and closed-form expressions.

    Persistence never marshals: a closed-form expression written by one
    process is decoded structurally by the next, which re-interns every
    symbol through {!Tpan_symbolic.Var} by its display name — so the
    integer variable ids inside decoded polynomials are always this
    process's ids and decoded expressions compose safely with
    freshly-built ones.

    Encoding is exact: coefficients render through
    {!Tpan_mathkit.Q.to_string} (["a/b"] or an integer) and parse back
    with no rounding. *)

val q_to_json : Tpan_mathkit.Q.t -> Tpan_obs.Jsonv.t
val q_of_json : Tpan_obs.Jsonv.t -> Tpan_mathkit.Q.t option

val ratfun_to_json : Tpan_symbolic.Ratfun.t -> Tpan_obs.Jsonv.t
(** [{"num": <poly>, "den": <poly>}], each polynomial a list of
    monomials [{"c": "3/4", "m": [["E(t3)", 2], …]}]. *)

val ratfun_of_json : Tpan_obs.Jsonv.t -> Tpan_symbolic.Ratfun.t option
(** [None] on any malformed document or a zero denominator. *)
