(** Decision graphs (paper §2, Figure 5): the timed reachability graph
    collapsed onto its decision nodes.

    Decision nodes are the states with more than one successor. Every
    maximal chain of single-successor states between two decision nodes
    becomes one edge, whose delay is the sum of the chain's delays and whose
    probability is the branching probability of its first step.

    Works for both concrete and symbolic graphs (delay/probability types are
    polymorphic; the caller supplies the accumulation operators). *)

module Net = Tpan_petri.Net
module Semantics = Tpan_core.Semantics

type target =
  | To of int  (** the decision node reached *)
  | Absorbed of int  (** a terminal state reached: the system halts *)

type ('t, 'p) dedge = {
  src : int;  (** decision-node state index in the underlying graph *)
  dst : target;
  delay : 't;  (** accumulated along the collapsed path *)
  prob : 'p;
  path : int list;  (** state indices traversed, [src … dst] inclusive *)
  fired : Net.trans list;  (** every transition that began firing en route *)
  completed : Net.trans list;
}

type ('t, 'p) t = {
  nodes : int list;  (** decision-node state indices *)
  edges : ('t, 'p) dedge list;
}

exception Deterministic_cycle of int list
(** A walk from a decision node entered a cycle containing no decision node:
    the system becomes deterministic forever and the decision-graph
    abstraction does not apply (analyse it with
    {!deterministic_cycle_of_graph} instead). *)

val of_graph :
  add:('t -> 't -> 't) ->
  mul:('p -> 'p -> 'p) ->
  ('t, 'p) Semantics.graph ->
  ('t, 'p) t
(** @raise Deterministic_cycle — see above. *)

val is_absorbing : ('t, 'p) t -> bool

val deterministic_cycle_of_graph :
  add:('t -> 't -> 't) -> zero:'t -> ('t, 'p) Semantics.graph ->
  ('t * int list) option
(** For graphs with {e no} decision node: follow the unique run from the
    initial state; [Some (cycle_time, cycle_states)] if it loops, [None] if
    it terminates. *)

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
