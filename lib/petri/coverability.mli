(** Karp–Miller coverability analysis.

    Decides boundedness even when the reachability set is infinite, by
    accelerating strictly-growing loops into ω components. Used to vet nets
    before timed analysis: the paper's conflict-set machinery assumes
    "firing a transition disables all conflicting transitions", which we
    check on bounded (in practice safe) nets. *)

type omega_marking = int array
(** Token counts with [omega] (unbounded) encoded as [max_int]. *)

type tree = {
  net : Net.t;
  nodes : omega_marking array;
  children : (Net.trans * int) list array;
}

val build : ?max_nodes:int -> ?on_progress:(int -> unit) -> Net.t -> tree
(** [on_progress] is called with the running node count after each node
    is added (throttle with {!Tpan_obs.Progress.every}).
    @raise Reachability.State_limit if the tree exceeds [max_nodes]
    (default 100_000). *)

val is_bounded : tree -> bool
(** No ω appears anywhere. *)

val place_bound : tree -> Net.place -> int option
(** [None] if the place is unbounded, otherwise an upper bound on its token
    count (exact for bounded nets: coverability = reachability there). *)

val unbounded_places : tree -> Net.place list

val coverable : tree -> int array -> bool
(** Can a marking ≥ the given vector be covered? *)
