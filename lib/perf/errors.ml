(* Perf-level exception classification: extends [Tpan_core.Error.of_exn]
   with the exceptions defined in this library. The facade's
   [Tpan.Error.of_exn] adds the parser layer on top of this. *)

module Error = Tpan_core.Error

let of_exn = function
  | Rates.Unsolvable msg -> Some (Error.Unsolvable msg)
  | e -> Error.of_exn e
