(* The one NDJSON appender and the one line reader behind every
   persisted record: ledger rows, flight frames, cache lines and bench
   history. *)

(* [single_write] reports exactly what it wrote, so a short or
   interrupted write resumes where it stopped; [Unix.write] loops
   internally and loses that count when EINTR lands mid-line. *)
let rec write_all fd b off =
  if off < Bytes.length b then
    match Unix.single_write fd b off (Bytes.length b - off) with
    | n -> write_all fd b (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off

let append path doc =
  try
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> write_all fd (Bytes.of_string (Jsonv.to_string doc ^ "\n")) 0);
    Ok ()
  with
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Sys_error msg -> Error msg

let fold path decode f init =
  if not (Sys.file_exists path) then Ok (init, 0)
  else
    try
      In_channel.with_open_bin path (fun ic ->
          let rec go acc skipped =
            match In_channel.input_line ic with
            | None -> (acc, skipped)
            | Some line when String.trim line = "" -> go acc skipped
            | Some line -> (
              match Option.bind (Result.to_option (Jsonv.of_string line)) decode with
              | Some x -> go (f acc x) skipped
              | None -> go acc (skipped + 1))
          in
          Ok (go init 0))
    with Sys_error msg -> Error msg

let load path decode =
  Result.map (fun (xs, skipped) -> (List.rev xs, skipped)) (fold path decode (Fun.flip List.cons) [])
