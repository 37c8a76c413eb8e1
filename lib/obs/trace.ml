type span = {
  sp_name : string;
  sp_start : float;
  sp_depth : int;
  mutable sp_attrs : (string * string) list;
  sp_real : bool;
}

type event = {
  name : string;
  start : float;
  dur : float;
  depth : int;
  lane : int;
  attrs : (string * string) list;
}

let enabled_flag = ref false

let set_enabled b =
  enabled_flag := b;
  Metrics.set_timing b

let enabled () = !enabled_flag

(* Span starts are stored relative to this process-level epoch so the
   exported microsecond timestamps stay small enough for exact float
   representation.

   Nesting depth and the lane id are tracked per domain (a worker's spans
   start at depth 0 in its own lane); the completed-event list is shared,
   so pushes are mutex-protected. *)
let t0 = Mclock.now ()
let cur_depth : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let cur_lane : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let completed : event list ref = ref []
let completed_count = ref 0
let completed_lock = Mutex.create ()

(* Requests whose events are kept apart, by trace id, newest first: a
   push appends to its own request's list and a drain takes that list,
   so concurrent requests neither trim nor scan each other's spans. *)
let kept : (string, event list ref) Hashtbl.t = Hashtbl.create 16

let keep_events ~trace_id =
  Mutex.protect completed_lock (fun () -> Hashtbl.replace kept trace_id (ref []))

(* Retention bound on the shared completed-event list: a long-running
   server traces every request, so without a cap the list is a slow
   leak. It never trims a kept request's events, only the shared list's
   (untagged events, and those of requests not kept or already
   drained). 0 = unbounded (the CLI default — a run exports its whole
   trace at exit). Trimming is amortized: the list is rebuilt only once
   the count reaches twice the cap. *)
let retention = ref 0
let set_retention n = Mutex.protect completed_lock (fun () -> retention := max 0 n)

let push_completed trace_id e =
  Mutex.protect completed_lock (fun () ->
      match Option.bind trace_id (Hashtbl.find_opt kept) with
      | Some mine -> mine := e :: !mine
      | None ->
        completed := e :: !completed;
        incr completed_count;
        let cap = !retention in
        if cap > 0 && !completed_count >= 2 * cap then begin
          let rec take n = function
            | x :: tl when n > 0 -> x :: take (n - 1) tl
            | _ -> []
          in
          completed := take cap !completed;
          completed_count := cap
        end)
let dummy = { sp_name = ""; sp_start = 0.; sp_depth = 0; sp_attrs = []; sp_real = false }

let set_lane k = Domain.DLS.get cur_lane := k
let current_lane () = !(Domain.DLS.get cur_lane)

(* Active span stacks are maintained even with tracing disabled: the
   diagnostic dump must be able to say where each domain is at the
   moment of a deadline/stall, and those are exactly the runs that
   rarely enable full tracing. The always-on cost is a DLS load plus a
   list cons per span — spans mark stages, not inner-loop iterations,
   so this is noise. The registry holds each live domain's (lane,
   stack) refs, and a domain's row leaves it when the domain exits;
   reads from other domains are racy but single-word, good enough for
   diagnostics. *)
type dstack = { ds_lane : int ref; ds_stack : string list ref }

let stacks : dstack list ref = ref []
let stacks_lock = Mutex.create ()

let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let st = ref [] in
      let ds = { ds_lane = Domain.DLS.get cur_lane; ds_stack = st } in
      Mutex.protect stacks_lock (fun () -> stacks := ds :: !stacks);
      Domain.at_exit (fun () ->
          Mutex.protect stacks_lock (fun () -> stacks := List.filter (( != ) ds) !stacks));
      st)

let span_stacks () =
  List.rev_map (fun ds -> (!(ds.ds_lane), !(ds.ds_stack))) !stacks
  |> List.sort compare

let with_span name f =
  let stack = Domain.DLS.get stack_key in
  stack := name :: !stack;
  let pop () = match !stack with _ :: tl -> stack := tl | [] -> () in
  if not !enabled_flag then Fun.protect ~finally:pop (fun () -> f dummy)
  else begin
    let depth = Domain.DLS.get cur_depth in
    let sp =
      { sp_name = name; sp_start = Mclock.now () -. t0; sp_depth = !depth;
        sp_attrs = []; sp_real = true }
    in
    incr depth;
    Fun.protect
      ~finally:(fun () ->
        pop ();
        decr depth;
        let dur = Mclock.now () -. t0 -. sp.sp_start in
        let trace_id = Context.trace_id () in
        let attrs =
          match trace_id with
          | Some id -> ("trace_id", id) :: List.rev sp.sp_attrs
          | None -> List.rev sp.sp_attrs
        in
        let e =
          { name = sp.sp_name; start = sp.sp_start; dur; depth = sp.sp_depth;
            lane = current_lane (); attrs }
        in
        push_completed trace_id e)
      (fun () -> f sp)
  end

let add_attr sp k v = if sp.sp_real then sp.sp_attrs <- (k, v) :: sp.sp_attrs
let add_attr_int sp k v = add_attr sp k (string_of_int v)

let events () = List.rev !completed

let clear () =
  Mutex.protect completed_lock (fun () ->
      completed := [];
      completed_count := 0;
      Hashtbl.reset kept)

(* Remove and return a kept request's events — the per-request span
   tree the serving layer hands to [Tracez]. *)
let take_events ~trace_id =
  Mutex.protect completed_lock (fun () ->
      match Hashtbl.find_opt kept trace_id with
      | Some mine ->
        Hashtbl.remove kept trace_id;
        List.rev !mine
      | None -> [])

let total_duration name =
  List.fold_left (fun acc e -> if e.name = name then acc +. e.dur else acc) 0. !completed

(* ---------------- NDJSON export ---------------- *)

let escape = Jsonv.escape

let write_event out e =
  Printf.fprintf out
    "{\"name\":\"%s\",\"cat\":\"tpan\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":\"%d\""
    (escape e.name) e.lane (e.start *. 1e6) (e.dur *. 1e6) e.depth;
  List.iter (fun (k, v) -> Printf.fprintf out ",\"%s\":\"%s\"" (escape k) (escape v)) e.attrs;
  Printf.fprintf out "}}\n"

(* Completion order depends on domain scheduling; sorting by (lane,
   start, depth) makes the exported line order a function of what ran
   where, not of when the mutex was won. *)
let write_ndjson out =
  let evs =
    List.sort
      (fun a b -> compare (a.lane, a.start, a.depth) (b.lane, b.start, b.depth))
      (events ())
  in
  List.iter (write_event out) evs

(* ---------------- NDJSON parser ---------------- *)

let parse_line line =
  match Jsonv.of_string (String.trim line) with
  | Error _ -> None
  | Ok doc -> (
    let open Jsonv in
    match
      ( Option.bind (member "name" doc) to_string_opt,
        Option.bind (member "ts" doc) to_float_opt,
        Option.bind (member "dur" doc) to_float_opt )
    with
    | Some name, Some ts, Some dur ->
      let lane =
        match Option.bind (member "tid" doc) to_int_opt with Some t -> t | None -> 0
      in
      let args =
        match member "args" doc with
        | Some (Obj o) ->
          List.filter_map (fun (k, v) -> match v with Str s -> Some (k, s) | _ -> None) o
        | _ -> []
      in
      let depth =
        match List.assoc_opt "depth" args with
        | Some d -> (match int_of_string_opt d with Some i -> i | None -> 0)
        | None -> 0
      in
      let attrs = List.filter (fun (k, _) -> k <> "depth") args in
      Some { name; start = ts /. 1e6; dur = dur /. 1e6; depth; lane; attrs }
    | _ -> None)

(* ---------------- tree renderer ---------------- *)

let pp_tree fmt () =
  let evs = List.sort (fun a b -> compare (a.lane, a.start) (b.lane, b.start)) (events ()) in
  Format.pp_open_vbox fmt 0;
  List.iter
    (fun e ->
      let indent = String.make (2 * e.depth) ' ' in
      let attrs =
        match e.attrs with
        | [] -> ""
        | l -> "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
      in
      let lane = if e.lane = 0 then "" else Printf.sprintf " [lane %d]" e.lane in
      Format.fprintf fmt "%s%-*s %9.3f ms%s%s@," indent
        (max 1 (34 - 2 * e.depth))
        e.name (e.dur *. 1000.) attrs lane)
    evs;
  Format.pp_close_box fmt ()
