(* The facade's error classification: [Tpan_core.Error] plus every
   exception layered above core — perf (via [Tpan_perf.Errors]) and the
   parser. This is the one classifier the CLI needs. *)

include Tpan_core.Error

let of_exn = function
  | Tpan_dsl.Parser.Parse_error (pos, msg) ->
    Some
      (Parse_error { line = pos.Tpan_dsl.Lexer.line; col = pos.Tpan_dsl.Lexer.col; msg })
  | Invalid_argument msg -> Some (Invalid_input msg)
  | e -> Tpan_perf.Errors.of_exn e

let http_status e = match exit_code e with 6 -> 504 | 2 -> 400 | _ -> 422

let guard f =
  match f () with
  | v -> Ok v
  | exception e -> (
    match of_exn e with Some err -> Error err | None -> raise e)
