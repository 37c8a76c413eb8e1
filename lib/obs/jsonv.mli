(** Minimal JSON document builder (no JSON library in the toolchain).

    Used for the CLI's [--json] output and the sweep engine's machine
    output. Rendering is deterministic: object fields print in the order
    given, numbers print exactly as formatted by the caller ({!Raw}) or
    with ["%.17g"] ({!Float}), so identical values yield identical bytes —
    the property the parallel-determinism tests assert on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Raw of string  (** pre-formatted number (e.g. a [Q.pp_decimal] render); emitted verbatim *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val to_string : t -> string
(** Compact rendering, no trailing newline. *)

val to_string_hum : t -> string
(** Two-space indented rendering, for human eyes. *)

(** {1 Parsing}

    A complete JSON reader (objects, arrays, strings with escapes,
    numbers, booleans, null). It exists so the NDJSON artefacts this
    library writes — Chrome-trace lines, run-ledger records,
    [BENCH_tpan.json] — can be read back without an external JSON
    dependency. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed;
    trailing garbage is an error). Numbers parse as {!Int} when written
    without a fraction or exponent and in native [int] range, {!Float}
    otherwise. [\u]-escapes decode to UTF-8 (surrogate pairs included).
    A raw control character (U+0000–U+001F) inside a string is an error,
    as RFC 8259 requires: {!escape} never writes one, so it marks a
    corrupt line. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field of an object ([None] for other constructors or absent keys). *)

val to_float_opt : t -> float option
(** {!Int}, {!Float} or a numeric {!Raw}; [None] otherwise. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
