(** Explicit-state reachability for untimed nets: the classic analysis the
    paper builds on ("reachability graphs ... used extensively to prove
    properties related to correctness such as deadlock-freeness"). *)

type graph = {
  net : Net.t;
  states : Marking.t array;          (** index 0 is the initial marking *)
  edges : (Net.trans * int) list array;  (** outgoing [(transition, target)] *)
}

exception State_limit of int
(** Raised when exploration exceeds the state budget: the net may be
    unbounded (use {!Coverability}) or just large. *)

val explore : ?max_states:int -> ?on_progress:(int -> unit) -> Net.t -> graph
(** Breadth-first enumeration of the reachable markings under atomic
    (untimed) firing. [max_states] defaults to 100_000. [on_progress] is
    called with the running state count after each fresh marking is
    interned (throttle with {!Tpan_obs.Progress.every}). *)

val num_states : graph -> int
val num_edges : graph -> int

val deadlocks : graph -> int list
(** Indices of dead markings. *)

val is_deadlock_free : graph -> bool

val place_bound : graph -> Net.place -> int
(** Max token count observed over all reachable markings. *)

val is_safe : graph -> bool
(** 1-bounded in every reachable marking. *)

val live_transitions : graph -> Net.trans list
(** Transitions that are enabled in at least one reachable marking (L1-live). *)

val path_to : graph -> (Marking.t -> bool) -> Net.trans list option
(** A shortest firing sequence from the initial marking to a marking
    satisfying the predicate. *)
