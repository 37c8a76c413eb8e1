(** The unified error type ({!Tpan_core.Error.t}) with the facade-level
    exception classifier covering every layer. *)

type t = Tpan_core.Error.t =
  | Unsupported of string
  | Insufficient of { lhs : string; rhs : string; hint : string }
  | State_limit of int
  | Unsolvable of string
  | Parse_error of { line : int; col : int; msg : string }
  | Io_error of string
  | Invalid_input of string
  | Deadline_exceeded of string

val to_string : t -> string

val exit_code : t -> int
(** Stable process exit codes — see {!Tpan_core.Error.exit_code}. *)

val http_status : t -> int
(** The socket's status for the same error: 504 for a deadline (exit 6),
    400 for bad input (exit 2), 422 for every other analysis failure. *)

val quote : string -> string
(** See {!Tpan_core.Error.quote}. *)

val of_exn : exn -> t option
(** Classifies core, perf and parser exceptions (and maps
    [Invalid_argument] onto [Invalid_input]); [None] for genuine bugs. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run the thunk, returning classified failures as [Error]; unclassified
    exceptions propagate. *)

val pp : Format.formatter -> t -> unit
