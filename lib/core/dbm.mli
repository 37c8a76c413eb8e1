(** Difference-bound matrices over exact rationals with +∞ — the firing
    domains of Merlin–Farber Time Petri Net state classes
    (Berthomieu–Menasche analysis, referenced by the paper's §1
    comparison).

    A DBM of dimension [n] constrains variables [θ₁ … θₙ] (index 0 is the
    constant zero): entry [(i,j)] bounds [θᵢ − θⱼ ≤ m(i,j)]. *)

module Q = Tpan_mathkit.Q

type bound = Fin of Q.t | Inf

val bound_compare : bound -> bound -> int
val bound_add : bound -> bound -> bound
val bound_min : bound -> bound -> bound

type t

val create : int -> t
(** Unconstrained DBM on [n] variables (all bounds +∞, zero diagonal). *)

val get : t -> int -> int -> bound

val set : t -> int -> int -> bound -> unit
(** Tighten-or-replace an entry (no implicit min). *)

val constrain : t -> int -> int -> bound -> unit
(** [constrain m i j b] adds [θᵢ − θⱼ ≤ b] (takes the min with the current
    bound). *)

val copy : t -> t

val canonicalize : t -> bool
(** All-pairs shortest paths (Floyd–Warshall). Returns [false] iff the
    system is empty (a negative cycle exists); entries are left tightened
    either way. *)

val equal : t -> t -> bool
(** Entry-wise equality — meaningful on canonicalized DBMs. *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
