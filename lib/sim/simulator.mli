(** Monte-Carlo discrete-event simulation of concrete Timed Petri Nets.

    This is an independent implementation of the semantics (event queue over
    wall-clock time, no RET/RFT state vectors), used to cross-validate the
    analytic performance expressions: simulated throughput must converge to
    the decision-graph prediction.

    Time is exact ℚ during execution, so simultaneity (e.g. an ack arriving
    exactly at the timeout) is resolved exactly as in the analysis. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn

type stats = {
  horizon : Q.t;
  sim_time : Q.t;  (** actual simulated span; < horizon iff deadlocked *)
  began : int array;  (** firings started, per transition *)
  completed : int array;  (** firings finished, per transition *)
  place_time : Q.t array;  (** ∫ tokens(p) dt, per place *)
  deadlocked : bool;
}

val run : ?seed:int -> ?warmup:Q.t -> horizon:Q.t -> Tpn.t -> stats
(** Simulate from the initial marking until [horizon] (or deadlock).
    [warmup] (default 0) discards the initial transient: counters and
    place-time integrals only accumulate after that instant, and reported
    [sim_time]/[horizon] measure the post-warmup span — reducing
    initialization bias in steady-state estimates.
    @raise Tpn.Unsupported on symbolic nets or nets violating the paper's
    modelling assumptions
    @raise Invalid_argument if [warmup < 0] *)

val throughput : stats -> Net.trans -> float
(** Completions per unit time. *)

val mean_tokens : stats -> Net.place -> float
(** Time-averaged token count. *)

val utilization : stats -> Net.place -> float
(** Fraction of time the place was marked — exact only for safe places
    (token count ≤ 1), otherwise an upper estimate [min 1 mean_tokens]. *)

type estimate = { mean : float; std_error : float; ci95 : float * float; runs : int }

val replicate :
  ?seed:int -> ?warmup:Q.t -> runs:int -> horizon:Q.t -> Tpn.t -> (stats -> float) -> estimate
(** Independent replications of an output functional (e.g.
    [fun s -> throughput s t]). *)

val run_many :
  ?seed:int -> ?warmup:Q.t -> ?jobs:int -> runs:int -> horizon:Q.t ->
  Tpn.t -> (stats -> float) -> estimate
(** Parallel {!replicate}: per-replication seeds are split from the master
    seed exactly as {!replicate} does, the replications run on a
    [Tpan_par.Pool], and the outputs fold into the running statistics in
    replication order — so the estimate is bit-identical to {!replicate}
    for any [jobs] (default {!Tpan_par.Pool.default_jobs}).
    @raise Invalid_argument if [runs <= 0] *)
