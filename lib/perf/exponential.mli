(** Exponential-delay (Markovian) interpretation of a timed net — the
    competing analysis style the paper cites (Molloy's integration of delay
    and throughput measures via Markov chains).

    Each transition's delay is reinterpreted as an exponential distribution
    whose mean is [E(t) + F(t)]; enabled transitions race memorylessly, so
    the marking process is a continuous-time Markov chain over the {e
    untimed} reachability graph. Transition rates are
    [(frequency / Σ conflict-set frequencies) / (E + F)]: a lone transition
    keeps rate [1/mean], a weighted conflict pair with equal means races at
    the combined rate [1/mean] split by the weights (preserving both the
    sojourn time and the branching probabilities), and a zero frequency
    silences a transition (the deterministic model's priority has no
    Markovian counterpart). With {e unequal} means in a conflict set the
    branching necessarily distorts — exponential races cannot reproduce
    mean-independent branching; that gap is part of what the comparison
    demonstrates.

    Comparing this chain's predictions with the exact deterministic
    analysis quantifies what the exponential assumption costs — e.g. a
    deterministic pipeline outperforms its Markovian reading, because the
    mean of a maximum of exponentials exceeds the maximum of the means. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net

type t = {
  graph : Tpan_petri.Reachability.graph;  (** untimed marking graph *)
  rates : Q.t array;  (** per transition *)
}

val build : ?max_states:int -> Tpan_core.Tpn.t -> t
(** @raise Tpan_core.Tpn.Unsupported on symbolic nets or zero-mean
    transitions (infinite rate)
    @raise Tpan_petri.Reachability.State_limit if the untimed net exceeds
    the budget (it may be unbounded even when the timed net is safe) *)

val steady_state : t -> Q.t array
(** Stationary distribution over the marking graph (exact, sums to 1).
    @raise Rates.Unsolvable if the chain is absorbing or reducible in a way
    that prevents a unique stationary distribution. *)

val throughput : t -> steady:Q.t array -> Net.trans -> Q.t
(** Long-run firings of the transition per unit time:
    [Σ_m π(m)·rate(t)·[t enabled in m]]. *)

val mean_tokens : t -> steady:Q.t array -> Net.place -> Q.t

val erlang_expand : stages:int -> Tpan_core.Tpn.t -> Tpan_core.Tpn.t
(** Replace every positive-delay transition by a chain of [stages]
    transitions of mean [delay/stages] each: under the exponential reading
    the end-to-end delay becomes Erlang-[stages] (same mean, variance
    shrinking as 1/stages). As [stages] grows, the Markovian analysis of
    the expanded net converges to the deterministic result — quantifying
    how much of the exponential gap is pure variance. Only singleton
    conflict sets are expanded; a transition in a non-trivial conflict set
    keeps one stage (its race semantics must be preserved).
    @raise Tpan_core.Tpn.Unsupported on symbolic nets. *)
