(** The paper's Figure-3 successor procedure, generic over the time and
    probability domains.

    One implementation serves both analyses: instantiated with exact
    rationals it produces the concrete Timed Reachability Graph of Figure 4;
    instantiated with affine expressions ordered by the net's timing
    constraints (and rational-function probabilities) it produces the
    Symbolic Timed Reachability Graph of Figure 6.

    The build decides each ordering and records nothing about why: the
    Figure 7 audit of which constraints settled each minimum is
    recomputed from the finished graph by {!Symbolic.constraint_audit}. *)

module Net = Tpan_petri.Net
module Marking = Tpan_petri.Marking

(** What a domain must provide. All operations receive the {!Tpn.t} so that
    symbolic instances can consult its constraint system. *)
module type DOMAIN = sig
  type time
  type prob

  val enabling_time : Tpn.t -> Net.trans -> time
  val firing_time : Tpn.t -> Net.trans -> time

  val zero : time

  val is_zero : time -> bool
  (** Structural test; states are kept normalized so that semantically-zero
      entries are structurally zero. *)

  val add : time -> time -> time
  val sub : time -> time -> time

  val normalize : Tpn.t -> time -> time
  (** Canonicalize (e.g. collapse an expression entailed to equal 0). *)

  val compare_time : Tpn.t -> time -> time -> [ `Lt | `Eq | `Gt ]
  (** Total comparison. Symbolic domains raise when the constraints cannot
      decide (see {!Symbolic.Insufficient}). *)

  val time_equal : time -> time -> bool
  val time_hash : time -> int
  val pp_time : Format.formatter -> time -> unit

  val prob_one : prob
  val prob_mul : prob -> prob -> prob

  val prob_of_choice : Tpn.t -> chosen:Net.trans -> among:Net.trans list -> prob
  (** [f(chosen) / Σ f(t), t ∈ among] — the paper's branching probability.
      [among] lists the positive-frequency firable members of one conflict
      set (or the single zero-frequency one when it is alone). *)

  val prob_equal : prob -> prob -> bool
  val pp_prob : Format.formatter -> prob -> unit
end

type state_kind =
  | Decision  (** ≥ 1 firable transition; successors are instantaneous *)
  | Advance  (** no firable transition, time elapses to the next event *)
  | Terminal  (** nothing enabled, nothing firing *)

(** Graph data is polymorphic in the time and probability representations so
    that downstream analyses (decision graphs, measures) are written once
    for both the concrete and the symbolic instantiation. *)

type 'time state = {
  marking : Marking.t;
  ret : 'time array;  (** remaining enabling time per transition *)
  rft : 'time array;  (** remaining firing time per transition *)
}

type ('time, 'prob) edge = {
  src : int;
  dst : int;
  delay : 'time;
  prob : 'prob;
  fired : Net.trans list;  (** transitions that began firing (selector) *)
  completed : Net.trans list;  (** transitions whose firing finished *)
}

type ('time, 'prob) graph = {
  tpn : Tpn.t;
  states : 'time state array;  (** index 0 is the initial state *)
  out : ('time, 'prob) edge list array;
  kinds : state_kind array;
}

val branching_states : _ graph -> int list
(** States with more than one successor: the nodes the paper keeps in the
    decision graph (its Figure 5 "decision nodes" 3 and 11). *)

module Make (D : DOMAIN) : sig
  type nonrec state = D.time state
  type nonrec edge = (D.time, D.prob) edge
  type nonrec graph = (D.time, D.prob) graph

  type edge_data = {
    e_delay : D.time;
    e_prob : D.prob;
    e_fired : Net.trans list;
    e_completed : Net.trans list;
  }

  val initial_state : Tpn.t -> state

  val successors : Tpn.t -> state -> (edge_data * state) list
  (** Raw successor computation (Figure 3); [edge_data] lacks indices. *)

  val build : ?max_states:int -> ?on_progress:(int -> unit) -> Tpn.t -> graph
  (** Full graph by BFS with state deduplication (default limit 100_000).
      [on_progress] is called with the running state count after each
      fresh state is interned (throttle with {!Tpan_obs.Progress.every}).
      @raise Tpn.Unsupported on nets violating the paper's assumptions
      @raise Tpan_petri.Reachability.State_limit when the budget is hit *)

  val terminal_states : graph -> int list
  val num_states : graph -> int
  val num_edges : graph -> int

  val state_equal : state -> state -> bool
  val pp_state : Tpn.t -> Format.formatter -> state -> unit
end
