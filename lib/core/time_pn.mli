(** Merlin–Farber {e Time} Petri Nets — the competing time extension the
    paper compares against in §1.

    Each transition carries a static interval [[min, max]]: once enabled it
    may fire (instantaneously, tokens staying on the input places meanwhile)
    any time after [min] and must fire no later than [max]. Analysis is by
    Berthomieu–Menasche state classes: a class is a marking plus a firing
    domain (a difference-bound system over the enabled transitions' firing
    times).

    {!of_tpn} implements the paper's Figure 2: a Timed Petri Net transition
    with enabling time [E] and firing time [F] becomes an absorb transition
    with interval [[E, E]] feeding a buffer place, followed by an emit
    transition with interval [[F, F]] — making the two models' reachable
    behaviours comparable (see the equivalence checks in the test suite). *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Marking = Tpan_petri.Marking

type interval = { min : Q.t; max : Q.t option  (** [None] = unbounded *) }

val interval : ?max:Q.t -> Q.t -> interval
(** @raise Invalid_argument if [max < min] or [min < 0]. *)

type t

val make : Net.t -> (string * interval) list -> t
(** Every transition must receive exactly one interval.
    @raise Invalid_argument on missing/duplicate/unknown names. *)

val net : t -> Net.t
val interval_of : t -> Net.trans -> interval

(** {1 State-class graph} *)

type state_class = {
  marking : Marking.t;
  enabled : Net.trans list;  (** in increasing index order *)
  domain : Dbm.t;  (** canonical firing domain over [enabled] (1-based) *)
}

type graph = {
  tpn : t;
  classes : state_class array;
  edges : (Net.trans * int) list array;  (** outgoing, labelled by fired transition *)
}

val build : ?max_classes:int -> t -> graph
(** Berthomieu–Menasche construction with class deduplication.
    @raise Tpan_petri.Reachability.State_limit on budget exhaustion
    @raise Tpn.Unsupported if a transition becomes multiply-enabled *)

val num_classes : graph -> int

val reachable_markings : graph -> Marking.t list
(** Distinct markings over all classes. *)

val firable : t -> state_class -> Net.trans list
(** Transitions that can fire first from a class. *)

val can_dwell : t -> state_class -> bool
(** Can time elapse in this class (no enabled transition is forced to fire
    immediately)? Zero-dwell classes are the interleaving micro-states the
    one-transition-at-a-time Merlin–Farber semantics inserts between
    simultaneous events; filtering them recovers the markings observable
    for positive duration, which coincide with the Timed-Petri-Net view. *)

(** {1 Figure 2: translation from Timed Petri Nets} *)

val of_tpn : Tpn.t -> t * (Net.trans -> string)
(** [of_tpn tpn] builds the equivalent Time Petri Net: per original
    transition [t], [t__absorb] with interval [[E(t), E(t)]], a buffer
    place [t__busy], and [t__emit] with interval [[F(t), F(t)]]. The
    returned function maps original transitions to the emit-transition
    name (for comparing event streams).
    @raise Tpn.Unsupported if the net is not concrete. *)

val project_marking : t -> Marking.t -> original_places:int -> Marking.t
(** Restrict a translated-net marking to the original places (buffer
    places are appended after the originals, so this is a prefix). *)
