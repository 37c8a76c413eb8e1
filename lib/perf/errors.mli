(** Exception → {!Tpan_core.Error.t} classification for the perf layer. *)

module Error = Tpan_core.Error

val of_exn : exn -> Error.t option
(** Classifies [Rates.Unsolvable], then falls back to
    {!Tpan_core.Error.of_exn}. [None] for genuine bugs. *)
