(** NDJSON files: one {!Jsonv} document per line.

    The one appender and the one reader behind every record the
    toolchain persists — {!Ledger} rows, {!Dump} frames, the artifact
    cache's lines and the bench history. A file is append-only: each
    {!append} opens it [O_APPEND] and writes one whole line, so
    concurrent appenders (processes or domains) interleave at line
    granularity. A torn or foreign line costs only itself on read. *)

val append : string -> Jsonv.t -> (unit, string) result
(** [append path doc] writes [doc] and its newline at the end of
    [path], creating the file and its parent directory (one level) when
    missing. Short writes and [EINTR] resume at the exact byte. *)

val fold :
  string ->
  (Jsonv.t -> 'a option) ->
  ('acc -> 'a -> 'acc) ->
  'acc ->
  ('acc * int, string) result
(** [fold path decode f init] feeds every decoded line to [f] in file
    order, one line at a time, and returns the result with the number
    of non-blank lines that did not parse or that [decode] refused. A
    missing file reads as empty; [Error] only when the file cannot be
    read. No file content makes it raise, provided [decode] does not. *)

val load : string -> (Jsonv.t -> 'a option) -> ('a list * int, string) result
(** {!fold} into a list, oldest line first. *)
