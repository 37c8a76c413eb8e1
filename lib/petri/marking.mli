(** Markings: token counts per place, as flat immutable-by-convention
    arrays indexed by {!Net.place}. *)

type t = int array

val of_net : Net.t -> t
(** The initial marking. *)

val copy : t -> t
val tokens : t -> Net.place -> int

val enabled : Net.t -> t -> Net.trans -> bool
(** Normal Petri-net enabling rule: [μ(p) ≥ #(p, I(t))] for every input. *)

val enabled_transitions : Net.t -> t -> Net.trans list

val consume : Net.t -> t -> Net.trans -> t
(** Remove the input bag (the "begin firing" half of timed semantics).
    @raise Invalid_argument if not enabled. *)

val produce : Net.t -> t -> Net.trans -> t
(** Add the output bag (the "finish firing" half). *)

val fire : Net.t -> t -> Net.trans -> t
(** Atomic fire: [produce] after [consume] — classic untimed semantics. *)

val total : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Net.t -> Format.formatter -> t -> unit
(** Renders as [{p1, 2*p4}] using place names; [{}] when empty. *)
