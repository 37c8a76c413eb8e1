(** How a refusal quotes a client-supplied string.

    It lives at the bottom of the library stack so that every layer that
    refuses a name — the net builder as well as the analysis pipeline —
    bounds it by the same rule. *)

val quote : string -> string
(** Exactly as [%S] renders the string when it has at most 64 bytes,
    otherwise its first 64 bytes so rendered, an ellipsis and its length,
    so that a refusal stays small whatever the client sent. *)
