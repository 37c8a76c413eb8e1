module Lin = Tpan_symbolic.Linexpr

type t =
  | Unsupported of string
  | Insufficient of { lhs : string; rhs : string; hint : string }
  | State_limit of int
  | Unsolvable of string
  | Parse_error of { line : int; col : int; msg : string }
  | Io_error of string
  | Invalid_input of string
  | Deadline_exceeded of string

let to_string = function
  | Unsupported msg -> msg
  | Insufficient { lhs; rhs; hint } ->
    Printf.sprintf "insufficient timing constraints: cannot order %s and %s\n  %s" lhs rhs hint
  | State_limit n ->
    Printf.sprintf "state budget exhausted: exploration truncated at %d states (raise --max-states)"
      n
  | Unsolvable msg -> Printf.sprintf "rate equations unsolvable: %s" msg
  | Parse_error { line; col; msg } ->
    Printf.sprintf "parse error at line %d, column %d: %s" line col msg
  | Io_error msg -> msg
  | Invalid_input msg -> msg
  | Deadline_exceeded why -> Printf.sprintf "analysis aborted: %s" why

let exit_code = function
  | Unsupported _ | Parse_error _ | Io_error _ | Invalid_input _ -> 2
  | Insufficient _ -> 3
  | Unsolvable _ -> 4
  | State_limit _ -> 5
  | Deadline_exceeded _ -> 6

let quote = Tpan_obs.Quote.quote

let of_exn = function
  | Tpn.Unsupported msg -> Some (Unsupported msg)
  | Symbolic.Insufficient { lhs; rhs; hint } ->
    Some
      (Insufficient
         {
           lhs = Format.asprintf "%a" Lin.pp lhs;
           rhs = Format.asprintf "%a" Lin.pp rhs;
           hint;
         })
  | Tpan_petri.Reachability.State_limit n -> Some (State_limit n)
  | Tpan_obs.Cancel.Cancelled reason ->
    Some (Deadline_exceeded (Tpan_obs.Cancel.reason_to_string reason))
  | Sys_error msg -> Some (Io_error msg)
  | _ -> None

let pp fmt e = Format.pp_print_string fmt (to_string e)
