(** Decision graphs (paper §2, Figure 5): the timed reachability graph
    collapsed onto its decision nodes.

    Decision nodes are the states with more than one successor, plus one
    {e renewal node} per cycle of single-successor states: the cycle's
    smallest state. Every maximal chain of single-successor states between
    two nodes becomes one edge, whose delay is the sum of the chain's
    delays and whose probability is the branching probability of its first
    step. A renewal node's one edge goes round its cycle back to itself:
    probability 1, delay the cycle's period. So a net whose long-run
    behaviour is deterministic (a marked graph, a lossless protocol) is
    solved like any other renewal cycle. Every walk ends at a node or a
    terminal state.

    Works for both concrete and symbolic graphs (delay/probability types are
    polymorphic; the caller supplies the accumulation operators). *)

module Net = Tpan_petri.Net
module Semantics = Tpan_core.Semantics

type target =
  | To of int  (** the decision node reached *)
  | Absorbed of int  (** a terminal state reached: the system halts *)

type ('t, 'p) dedge = {
  src : int;  (** node state index in the underlying graph *)
  dst : target;
  delay : 't;  (** accumulated along the collapsed path *)
  prob : 'p;
  path : int list;  (** state indices traversed, [src … dst] inclusive *)
  fired : Net.trans list;  (** every transition that began firing en route *)
  completed : Net.trans list;
}

type ('t, 'p) t = {
  nodes : int list;  (** node state indices, ascending *)
  edges : ('t, 'p) dedge list;
}

val of_graph :
  add:('t -> 't -> 't) ->
  mul:('p -> 'p -> 'p) ->
  ('t, 'p) Semantics.graph ->
  ('t, 'p) t

val is_absorbing : ('t, 'p) t -> bool

val pp :
  pp_delay:(Format.formatter -> 't -> unit) ->
  pp_prob:(Format.formatter -> 'p -> unit) ->
  Format.formatter ->
  ('t, 'p) t ->
  unit

val to_dot :
  pp_delay:(Format.formatter -> 't -> unit) ->
  pp_prob:(Format.formatter -> 'p -> unit) ->
  ('t, 'p) t ->
  string
(** Graphviz rendering: decision nodes as diamonds, edges labelled
    [p / d]. *)
