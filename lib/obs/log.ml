type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type field = string * Jsonv.t

type record = {
  ts : float;
  level : level;
  msg : string;
  lane : int;
  trace_id : string option;
  fields : field list;
}

type sink = record -> unit

(* Records are emitted from any domain. One sink lock serializes every
   dispatch, so a sink never runs twice at once and lines never
   interleave; [set_sinks] takes it too, so once it returns no old sink
   is still running. The cached minimum severity makes [enabled] one
   load + one compare, outside the lock. *)
let sinks : (level * sink) list ref = ref []
let min_severity = ref max_int
let sink_lock = Mutex.create ()

let set_sinks l =
  Mutex.protect sink_lock (fun () ->
      sinks := l;
      min_severity :=
        List.fold_left (fun acc (lvl, _) -> min acc (severity lvl)) max_int l)

(* ---------------- emission ---------------- *)

let dispatch r =
  Mutex.protect sink_lock (fun () ->
      List.iter (fun (lvl, sink) -> if severity r.level >= severity lvl then sink r) !sinks)

let enabled level = severity level >= !min_severity

let emit level msg fields =
  if enabled level then
    dispatch
      { ts = Unix.gettimeofday (); level; msg; lane = Trace.current_lane ();
        trace_id = Context.trace_id (); fields }

let debug ?(fields = []) msg = emit Debug msg fields
let info ?(fields = []) msg = emit Info msg fields
let warn ?(fields = []) msg = emit Warn msg fields
let error ?(fields = []) msg = emit Error msg fields

(* ---------------- sinks ---------------- *)

let field_text v =
  match v with
  | Jsonv.Str s ->
    if String.exists (fun c -> c = ' ' || c = '"' || Char.code c < 32) s then
      "\"" ^ Jsonv.escape s ^ "\""
    else s
  | v -> Jsonv.to_string v

let stderr_sink r =
  let tm = Unix.localtime r.ts in
  let ms = int_of_float (Float.rem r.ts 1.0 *. 1000.) in
  let fields =
    match r.fields with
    | [] -> ""
    | fs ->
      " ("
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ field_text v) fs)
      ^ ")"
  in
  let lane = if r.lane = 0 then "" else Printf.sprintf " [lane %d]" r.lane in
  Printf.eprintf "%02d:%02d:%02d.%03d %-5s %s%s%s\n%!" tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec ms
    (String.uppercase_ascii (level_to_string r.level))
    r.msg fields lane

let record_to_json r =
  let trace =
    match r.trace_id with
    | Some id -> [ ("trace_id", Jsonv.Str id) ]
    | None -> []
  in
  Jsonv.Obj
    ([
       ("ts", Jsonv.Float r.ts);
       ("level", Jsonv.Str (level_to_string r.level));
       ("msg", Jsonv.Str r.msg);
       ("lane", Jsonv.Int r.lane);
     ]
    @ trace
    @ [ ("fields", Jsonv.Obj r.fields) ])

let ndjson_sink oc r =
  output_string oc (Jsonv.to_string (record_to_json r));
  output_char oc '\n';
  flush oc
