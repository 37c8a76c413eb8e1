(** Symbolic Timed Reachability Graphs (paper §3, Figure 6): delays are
    affine expressions in the net's time symbols, branching probabilities
    are rational functions of the frequency symbols, and minima are decided
    by the net's timing-constraint system.

    When the constraints cannot order two remaining times, construction
    stops with {!Insufficient}, carrying the exact comparison that failed
    and a suggested constraint — the interactive-tool behaviour the paper
    proposes ("an automated tool could be designed to prompt designers for
    timing constraints at the necessary points"). *)

module Lin = Tpan_symbolic.Linexpr
module Rf = Tpan_symbolic.Ratfun

exception Insufficient of { lhs : Lin.t; rhs : Lin.t; hint : string }
(** Raised when the timing constraints do not determine the order of two
    non-zero remaining times. [hint] is {!Tpan_symbolic.Constraints.suggest}
    output. *)

module Domain :
  Semantics.DOMAIN with type time = Lin.t and type prob = Rf.t

module Graph : module type of Semantics.Make (Domain)

val build : ?max_states:int -> ?on_progress:(int -> unit) -> Tpn.t -> Graph.graph
(** Works for any net (concrete specs become constant expressions). Builds
    under a ["symbolic.build"] trace span; [on_progress] as in
    {!Semantics.Make.build}.
    @raise Insufficient when the constraint system is too weak
    @raise Tpn.Unsupported on nets violating the modelling assumptions *)

val total_delay : Graph.edge list -> Lin.t

val constraint_audit : Graph.graph -> (int * int * string list) list
(** Per-edge constraint usage [(src, dst, labels)] for edges whose minimum
    needed at least one declared constraint — reproduces the paper's
    Figure 7. Computed on demand from the finished graph: for each
    time-advance edge, the union of the irreducible cores
    ({!Tpan_symbolic.Constraints.justify}) proving its delay is at most
    every other non-zero remaining time of its source state, in graph
    order. It bypasses the net's oracle and runs one Fourier–Motzkin
    entailment per declared constraint, plus one, for every compared
    entry, so it is a report for the designer: no serving path calls
    it. *)

val to_dot : Graph.graph -> string
