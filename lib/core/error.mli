(** Unified error values for the analysis pipeline.

    Every failure mode the pipeline can hit — unsupported net features,
    truncated exploration, unsolvable rate equations, parse errors — has a
    variant here. The analysis layers raise exceptions; the facade's
    [result]-typed entry points ([Tpan.Analysis.*], [Tpan.Artifact.*])
    return these values, and the CLI and server map them onto stable exit
    codes in one place.

    Layering: this module lives in [tpan_core], below [tpan_perf] and
    [tpan_dsl], so {!of_exn} only classifies the exceptions core can see
    ([Tpn.Unsupported], [Symbolic.Insufficient], [Reachability.State_limit],
    [Cancel.Cancelled], [Sys_error]). [Tpan_perf.Errors.of_exn] adds the
    perf-level exceptions (a sweep classifies failed points with it), and
    the facade's [Tpan.Error.of_exn] adds the parser's. *)

type t =
  | Unsupported of string
      (** The net uses a feature outside the analyzable class (e.g. a
          non-conflict-free concrete TPN for decision-graph collapse). *)
  | Insufficient of { lhs : string; rhs : string; hint : string }
      (** Symbolic exploration could not order two clock expressions;
          [lhs]/[rhs] are rendered linear expressions. *)
  | State_limit of int
      (** Exploration truncated at the given state budget. *)
  | Unsolvable of string
      (** The traversal-rate equations have no unique solution. *)
  | Parse_error of { line : int; col : int; msg : string }
  | Io_error of string
  | Invalid_input of string
      (** A malformed request (bad parameter name, bad grid spec, …). *)
  | Deadline_exceeded of string
      (** The analysis was cancelled mid-flight — deadline crossed,
          stall, or signal; the payload is the rendered
          {!Tpan_obs.Cancel.reason}. *)

val to_string : t -> string
(** One-line human rendering, matching the CLI's historical wording. *)

val exit_code : t -> int
(** Stable process exit code: 2 for input-side errors ([Unsupported],
    [Parse_error], [Io_error], [Invalid_input]), 3 for [Insufficient],
    4 for [Unsolvable], 5 for [State_limit],
    6 for [Deadline_exceeded]. *)

val quote : string -> string
(** A client-supplied string as a refusal quotes it: {!Tpan_obs.Quote.quote}. *)

val of_exn : exn -> t option
(** Classify the core-visible analysis exceptions; [None] for anything
    this layer doesn't know (perf/parser exceptions — see
    [Tpan.Error.of_exn] — and genuine bugs). *)

val pp : Format.formatter -> t -> unit
