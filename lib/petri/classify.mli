(** Structural net classes — they determine which theorems apply (e.g.
    Commoner's condition is a deadlock-freedom {e characterization} only on
    free-choice nets; marked graphs have the cycle-time bound used by the
    pipeline analysis). *)

val is_free_choice : Net.t -> bool
(** For any two transitions sharing an input place, the input bags are
    equal — a conflict is always a "free" choice, never influenced by other
    tokens. (Equal-bag a.k.a. extended free choice.) *)

type t = {
  state_machine : bool;
  marked_graph : bool;
  free_choice : bool;
}

val classify : Net.t -> t
val pp : Format.formatter -> t -> unit
