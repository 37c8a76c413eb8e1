(** First-passage (latency) analysis on timed reachability graphs.

    Beyond steady-state throughput, protocol designers ask "how long until
    X happens?": mean time from a state until the first occurrence of an
    event (a transition beginning or completing on some edge). The
    expectations satisfy

    [h(s) = Σ_{e out of s} p_e · (d_e + (0 if e is the event else h(dst e)))]

    but that system is never assembled. Over the states [start] reaches
    before the event, redirect every event edge to [start]: the result is
    an irreducible renewal chain, and by the renewal-reward theorem
    [h(start) = Σ_e r_e·d_e / Σ_{e event} r_e], the paper's throughput
    quotient inverted. Its rates [r_e] come from the same
    {!Rates.field.balance} that throughput uses: over ℚ for concrete
    graphs, over ℚ[x] for symbolic ones, so a symbolic latency is in
    lowest terms after one small gcd, and the solve honours deadlines.
    [None] when the event is not almost surely reached. *)

module Sem = Tpan_core.Semantics

val concrete_latency :
  Tpan_core.Concrete.Graph.graph ->
  ?start:int ->
  event:((Tpan_mathkit.Q.t, Tpan_mathkit.Q.t) Sem.edge -> bool) ->
  unit ->
  Tpan_mathkit.Q.t option
(** Convenience instance over ℚ; [start] defaults to the initial state. *)

val symbolic_latency :
  Tpan_core.Symbolic.Graph.graph ->
  ?start:int ->
  event:((Tpan_symbolic.Linexpr.t, Tpan_symbolic.Ratfun.t) Sem.edge -> bool) ->
  unit ->
  Tpan_symbolic.Ratfun.t option

val completion_event :
  Tpan_core.Tpn.t -> string -> ('t, 'p) Sem.edge -> bool
(** Event: the named transition finishes firing on this edge.
    @raise Invalid_argument for an unknown transition name *)

val firing_event : Tpan_core.Tpn.t -> string -> ('t, 'p) Sem.edge -> bool
(** Event: the named transition begins firing on this edge.
    @raise Invalid_argument for an unknown transition name *)
