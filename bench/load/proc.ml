(* Clocks, child processes, /proc readings and scratch directories. *)

external now : unit -> float = "tpan_load_now"
(** Monotonic seconds (CLOCK_MONOTONIC, nanosecond resolution). *)

external clk_tck : unit -> int = "tpan_load_clk_tck"

external wait4 : int -> int * float = "tpan_load_wait4"
(** Reap one child: (exit code or minus the signal, user + system CPU
    seconds of that child alone). *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Every server and CLI child runs in a directory of its own under
   [.tpan_load/] at the root of the checkout (ignored by git), which is
   also its [TPAN_DIR]: the ledger rows and flight dumps a default
   [tpan serve] writes land there, are measured, and are deleted with
   the directory. *)
let scratch_root () = Filename.concat (Sys.getcwd ()) ".tpan_load"
let dirs = ref 0

let fresh_dir () =
  let root = scratch_root () in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr dirs;
  let d = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) !dirs) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let remove_dir d =
  rm_rf d;
  try Unix.rmdir (scratch_root ()) with Unix.Unix_error _ -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ----- spawning ----- *)

(* The child sees the parent's environment minus any TPAN_* setting, so
   a stray TPAN_LEDGER cannot change what is measured, plus TPAN_DIR
   pointing at its own directory. *)
let child_env dir =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"TPAN_" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (inherited @ [ "TPAN_DIR=" ^ dir ])

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* [Unix.create_process_env] has no working-directory argument; the
   generator is single-threaded while it spawns, so changing its own
   directory around the call is safe. *)
let spawn ~dir ~stdout ~stderr prog args =
  let cwd = Sys.getcwd () in
  Unix.chdir dir;
  Fun.protect
    ~finally:(fun () -> Unix.chdir cwd)
    (fun () ->
      Unix.create_process_env prog
        (Array.of_list (prog :: args))
        (child_env dir) (Lazy.force devnull) stdout stderr)

(* The "Key: value" lines of /proc/<pid>/status; empty once the
   process is gone. *)
let status pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> []
  | s ->
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i -> Some (String.sub l 0 i, String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None)
      (String.split_on_char '\n' s)

let kib fields key = Option.bind (List.assoc_opt key fields) (fun v -> Scanf.sscanf_opt v "%d" Fun.id)

type run = { code : int; hwm_kb : int; cpu_s : float; out : string }

(* Run one CLI child to completion, capturing its standard output.

   The child's peak resident set cannot come from its rusage: the
   kernel folds in the memory it shared with the generator before its
   exec. Instead /proc/<pid>/status is sampled every half millisecond
   and when its output arrives, and VmHWM counts only once the process
   runs [prog]'s image; [hwm_kb] is 0 if no sample landed. *)
let run_cli ~dir prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () -> spawn ~dir ~stdout:w ~stderr:(Lazy.force devnull) prog args)
  in
  let comm = Filename.basename prog in
  let comm = String.sub comm 0 (min 15 (String.length comm)) in
  let hwm = ref 0 in
  let sample () =
    let fields = status pid in
    if List.assoc_opt "Name" fields = Some comm then
      Option.iter (fun kb -> hwm := max !hwm kb) (kib fields "VmHWM")
  in
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.select [ r ] [] [] 0.0005 with
    | [], _, _ ->
      sample ();
      drain ()
    | _ -> (
      sample ();
      match Unix.read r chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes out chunk 0 n;
        drain ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  Fun.protect ~finally:(fun () -> Unix.close r) drain;
  let code, cpu_s = wait4 pid in
  { code; hwm_kb = !hwm; cpu_s; out = Buffer.contents out }

(* ----- the server under test ----- *)

type server = { pid : int; port : int; dir : string; announce : Unix.file_descr }

let port_of_banner s =
  let marker = "listening on http://" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length s then None
    else if String.sub s i m = marker then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
    match (String.index_from_opt s i ':', String.index_from_opt s i '\n') with
    | Some c, Some nl when c < nl -> int_of_string_opt (String.sub s (c + 1) (nl - c - 1))
    | _ -> None)

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Start [tpan serve --port 0] with default flags in [dir] and wait for
   its "listening on" banner. *)
let start_server ~exe ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close log)
      (fun () -> spawn ~dir ~stdout:w ~stderr:log exe [ "serve"; "--port"; "0" ])
  in
  let banner = Buffer.create 128 and chunk = Bytes.create 256 in
  let deadline = now () +. 30. in
  let fail msg =
    kill_quietly pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Unix.close r;
    failwith msg
  in
  let rec wait () =
    match port_of_banner (Buffer.contents banner) with
    | Some port -> { pid; port; dir; announce = r }
    | None -> (
      let left = deadline -. now () in
      if left <= 0. then fail "tpan serve did not announce a port within 30 s";
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> fail "tpan serve exited before announcing a port"
        | n ->
          Buffer.add_subbytes banner chunk 0 n;
          wait ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ())
  in
  wait ()

(* SIGTERM, then up to 5 s for a clean exit with status 0. A server
   that overstays is killed and the shutdown reported as failed. *)
let stop_server s =
  kill_quietly s.pid Sys.sigterm;
  let deadline = now () +. 5. in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
      if now () < deadline then begin
        Unix.sleepf 0.002;
        poll ()
      end
      else begin
        kill_quietly s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid);
        Error "did not exit within 5 s of SIGTERM (killed)"
      end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "exited with status %d after SIGTERM" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "ended by signal %d after SIGTERM" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  let r = poll () in
  (try Unix.close s.announce with Unix.Unix_error _ -> ());
  r

(* utime + stime of a live process, in seconds. *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))) in
  (* after "pid (comm) ": state is field 3, utime field 14, stime 15 *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. float_of_int (clk_tck ())

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  match kib (status pid) "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM in /proc status"
