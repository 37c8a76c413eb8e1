(** Three-way differential checking of the analysis pipeline.

    For a net and a delivery transition, three independent computations of
    the long-run throughput must agree:

    - {b exact}: the closed-form symbolic expression
      ({!Tpan_perf.Measures.Symbolic.throughput}) evaluated at a rational
      point of the constraint region (for concrete nets, the exact
      ℚ rate-equation solution);
    - {b numeric}: the concrete TRG at the same point, collapsed to a
      decision graph and solved by floating-point power iteration
      ({!Tpan_perf.Markov.throughput});
    - {b simulation}: Monte-Carlo replications
      ({!Tpan_sim.Simulator.run_many}) with a 95% confidence interval.

    Disagreement — exact vs numeric beyond a relative tolerance, or exact
    outside the (widened) simulation interval — is a bug in one of the
    three implementations. The checker reports it with a greedy-shrunk
    reproducer ({!Shrink}), and {!fuzz} drives the whole pipeline over
    {!Gen} random nets. *)

module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn

type config = {
  samples : int;  (** constraint-region points per symbolic net *)
  seed : int;
  runs : int;  (** simulation replications per point *)
  horizon_cycles : int;
      (** simulated span per replication, in expected delivery periods *)
  max_states : int option;
  rel_tol : float;  (** exact vs numeric relative tolerance *)
  ci_sigma : float;
      (** half-width of the acceptance interval, in standard errors *)
  sim_slack : float;
      (** extra relative slack on the interval, absorbing the finite-
          horizon truncation bias the CI does not model; the interval
          additionally gets a [2/sqrt(horizon_cycles * runs)] relative
          floor, the genuine Monte-Carlo noise scale even when few
          replications make the estimated standard error unreliable *)
  shrink : bool;  (** minimize failures and render reproducers *)
  deadline : float option;
      (** per-case wall budget, seconds. In {!fuzz}, a case that
          exceeds it aborts at its next cancellation checkpoint and is
          recorded as [Error (Deadline_exceeded _)] instead of hanging
          the run; other cases proceed. [None] (the default) = no
          budget. *)
}

val default : config
(** 5 samples, 6 runs, 80-cycle horizon, [rel_tol = 1e-9],
    [ci_sigma = 4.5], [sim_slack = 0.04], shrinking on. *)

val quick : config -> config
(** The same checks at reduced cost (fewer samples, runs, cycles). *)

type disagreement =
  | Exact_vs_numeric of { exact : float; numeric : float; rel_err : float }
  | Exact_vs_sim of { exact : float; mean : float; lo : float; hi : float }

type triple = {
  point : Sampler.point;
  exact : Q.t;
  numeric : float;
  sim : Tpan_sim.Simulator.estimate;
}

type failure = {
  disagreement : disagreement;
  triple : triple;
  reproducer : string;  (** {!Shrink.reproducer} of the minimized pair *)
}

type outcome = {
  name : string;
  points : int;  (** triples actually evaluated *)
  agreed : int;
  failures : failure list;
  skipped : (string * string) list;  (** (point label, reason) *)
}

val ok : outcome -> bool
(** No failures, and at least one point agreed. Skipped points do not
    fail a check, but a check that skipped every point has shown nothing
    and is not ok. *)

val check_tpn :
  ?config:config ->
  ?expr:Tpan_symbolic.Ratfun.t ->
  name:string ->
  delivery:string ->
  Tpn.t ->
  (outcome, Tpan_core.Error.t) result
(** Run the three-way check. [expr] overrides the symbolic throughput
    expression (the hook for bug-injection tests: pass a deliberately
    wrong expression and the checker must flag it); when given, shrinking
    keeps the net structure and only minimizes the point. *)

val fuzz :
  ?config:config ->
  ?jobs:int ->
  cases:int ->
  unit ->
  (Gen.case * (outcome, Tpan_core.Error.t) result) list
(** [cases] generated nets, seeds [config.seed .. config.seed+cases-1],
    fanned out over a {!Tpan_par.Pool} (deterministic for any [jobs]). *)

val outcome_fields : outcome -> (string * Tpan_obs.Jsonv.t) list
(** The outcome's payload fields, envelope-free (the CLI wraps them). *)

val outcome_to_json : outcome -> Tpan_obs.Jsonv.t
(** Self-describing ([{"schema": 1, "kind": "check", …}]): one entry of
    the fuzz summary. *)

val pp_outcome : Format.formatter -> outcome -> unit
