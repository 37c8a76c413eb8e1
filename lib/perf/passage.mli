(** First-passage (latency) analysis on timed reachability graphs.

    Beyond steady-state throughput, protocol designers ask "how long until
    X happens?": mean time from a state until the first occurrence of an
    event (a transition beginning or completing on some edge). The
    expectations satisfy the linear system

    [h(s) = Σ_{e out of s} p_e · (d_e + (0 if e is the event else h(dst e)))]

    solved exactly over ℚ for concrete graphs and over rational functions
    for symbolic graphs — giving closed-form latency expressions in the
    spirit of the paper's throughput derivation. *)

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
(** Event: the named transition finishes firing on this edge. *)

val firing_event : Tpan_core.Tpn.t -> string -> ('t, 'p) Sem.edge -> bool
(** Event: the named transition begins firing on this edge. *)
