(* Flight-recorder frames and the watchdog.

   A frame is a point-in-time snapshot of a running analysis: every
   domain's active span stack, per-domain checkpoint heartbeats, GC
   statistics, and the metrics registry. Frames are appended as NDJSON
   (see [Ndjson]) to a flight file; [kind] distinguishes the watchdog's periodic
   ["frame"] records from event-driven ["dump"] records (deadline,
   stall, SIGUSR1). [tpan top] tails or replays the file.

   The watchdog runs in its own domain so it keeps observing even when
   every analysis domain is wedged inside a stage that stopped reaching
   its checkpoints. *)

type frame = {
  ts : float; (* wall clock, Unix epoch *)
  uptime : float; (* seconds since this module loaded *)
  kind : string; (* "frame" (periodic) or "dump" (event) *)
  reason : string option; (* for dumps: what triggered it *)
  trace_id : string option;
  spans : (int * string list) list; (* lane, open spans innermost first *)
  progress : (int * int) list; (* domain id, checkpoint heartbeats *)
  gc : (string * float) list;
  metrics : Jsonv.t;
}

let epoch = Mclock.now ()

let gc_stats () =
  let s = Gc.quick_stat () in
  [
    ("minor_words", s.Gc.minor_words);
    ("major_words", s.Gc.major_words);
    ("heap_words", float_of_int s.Gc.heap_words);
    ("minor_collections", float_of_int s.Gc.minor_collections);
    ("major_collections", float_of_int s.Gc.major_collections);
  ]

let snapshot ?(kind = "frame") ?reason ?trace_id () =
  {
    ts = Unix.gettimeofday ();
    uptime = Mclock.now () -. epoch;
    kind;
    reason;
    trace_id = (match trace_id with Some _ -> trace_id | None -> Context.trace_id ());
    spans = Trace.span_stacks ();
    progress = Cancel.heartbeats ();
    gc = gc_stats ();
    metrics = Metrics.to_json ~all:false ();
  }

(* ---------------- Jsonv round-trip ---------------- *)

let to_json f =
  let opt_str = function None -> Jsonv.Null | Some s -> Jsonv.Str s in
  Jsonv.Obj
    [
      ("ts", Jsonv.Float f.ts);
      ("uptime", Jsonv.Float f.uptime);
      ("kind", Jsonv.Str f.kind);
      ("reason", opt_str f.reason);
      ("trace_id", opt_str f.trace_id);
      ( "spans",
        Jsonv.List
          (List.map
             (fun (lane, stack) ->
               Jsonv.Obj
                 [
                   ("lane", Jsonv.Int lane);
                   ("stack", Jsonv.List (List.map (fun s -> Jsonv.Str s) stack));
                 ])
             f.spans) );
      ( "progress",
        Jsonv.List
          (List.map
             (fun (dom, n) ->
               Jsonv.Obj [ ("domain", Jsonv.Int dom); ("beats", Jsonv.Int n) ])
             f.progress) );
      ("gc", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Float v)) f.gc));
      ("metrics", f.metrics);
    ]

let of_json doc =
  let open Jsonv in
  let str k = Option.bind (member k doc) to_string_opt in
  let num k = Option.bind (member k doc) to_float_opt in
  match (num "ts", str "kind") with
  | Some ts, Some kind ->
    let spans =
      match Option.bind (member "spans" doc) to_list_opt with
      | Some xs ->
        List.filter_map
          (fun s ->
            match Option.bind (member "lane" s) to_int_opt with
            | Some lane ->
              let stack =
                match Option.bind (member "stack" s) to_list_opt with
                | Some items -> List.filter_map to_string_opt items
                | None -> []
              in
              Some (lane, stack)
            | None -> None)
          xs
      | None -> []
    in
    let progress =
      match Option.bind (member "progress" doc) to_list_opt with
      | Some xs ->
        List.filter_map
          (fun p ->
            match
              ( Option.bind (member "domain" p) to_int_opt,
                Option.bind (member "beats" p) to_int_opt )
            with
            | Some dom, Some n -> Some (dom, n)
            | _ -> None)
          xs
      | None -> []
    in
    let gc =
      match member "gc" doc with
      | Some (Obj o) ->
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (to_float_opt v)) o
      | _ -> []
    in
    Some
      {
        ts;
        uptime = (match num "uptime" with Some u -> u | None -> 0.);
        kind;
        reason = str "reason";
        trace_id = str "trace_id";
        spans;
        progress;
        gc;
        metrics = (match member "metrics" doc with Some m -> m | None -> List []);
      }
  | _ -> None

(* ---------------- storage ---------------- *)

(* The watchdog domain and a cancelling analysis domain may both
   append; [Ndjson] lines interleave whole. *)
let append path f = Ndjson.append path (to_json f)
let load path = Result.map fst (Ndjson.load path of_json)

(* ---------------- progress summary ---------------- *)

(* The partial-progress counters a deadline report leads with: how far
   each stage of the pipeline got before the abort. Pulled from the
   frame's metrics snapshot so the same code serves live dumps and
   replayed files. *)
let progress_counters =
  [
    ("core.semantics.states_interned", "states");
    ("core.semantics.edges", "edges");
    ("petri.reachability.states", "reach states");
    ("petri.coverability.nodes", "cover nodes");
    ("mathkit.fm.eliminations", "FM eliminations");
    ("perf.decision_graph.nodes", "decision nodes");
    ("sim.simulator.steps", "sim steps");
  ]

let progress_summary f =
  let entries =
    match f.metrics with
    | Jsonv.List ms ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (Jsonv.member "name" m) Jsonv.to_string_opt,
              Option.bind (Jsonv.member "value" m) Jsonv.to_int_opt )
          with
          | Some name, Some v -> Some (name, v)
          | _ -> None)
        ms
    | _ -> []
  in
  List.filter_map
    (fun (metric, label) ->
      match List.assoc_opt metric entries with
      | Some v when v > 0 -> Some (label, v)
      | _ -> None)
    progress_counters

let pp_frame fmt f =
  let open Format in
  pp_open_vbox fmt 0;
  let tm = Unix.localtime f.ts in
  fprintf fmt "%s at %02d:%02d:%02d (uptime %.2fs)%s@," f.kind tm.Unix.tm_hour
    tm.Unix.tm_min tm.Unix.tm_sec f.uptime
    (match f.reason with Some r -> " — " ^ r | None -> "");
  (match f.trace_id with
  | Some id -> fprintf fmt "trace %s@," id
  | None -> ());
  (match progress_summary f with
  | [] -> ()
  | ps ->
    fprintf fmt "progress: %s@,"
      (String.concat ", "
         (List.map (fun (label, v) -> Printf.sprintf "%d %s" v label) ps)));
  List.iter
    (fun (lane, stack) ->
      let where =
        match stack with
        | [] -> "(idle)"
        | s -> String.concat " < " s
      in
      fprintf fmt "lane %d: %s@," lane where)
    f.spans;
  List.iter
    (fun (dom, beats) -> fprintf fmt "domain %d: %d checkpoints@," dom beats)
    f.progress;
  (match List.assoc_opt "heap_words" f.gc with
  | Some hw ->
    fprintf fmt "gc: heap %.1f MB, %d minor / %d major collections@,"
      (hw *. 8. /. 1e6)
      (int_of_float (Option.value ~default:0. (List.assoc_opt "minor_collections" f.gc)))
      (int_of_float (Option.value ~default:0. (List.assoc_opt "major_collections" f.gc)))
  | None -> ());
  pp_close_box fmt ()

(* ---------------- watchdog ---------------- *)

let sigusr1_flag = Atomic.make false

let install_sigusr1 () =
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set sigusr1_flag true))
  with Invalid_argument _ | Sys_error _ -> ()

type watchdog = { stop_flag : bool Atomic.t; dom : unit Domain.t }

let write_dump ?trace_id path reason =
  let f = snapshot ~kind:"dump" ~reason ?trace_id () in
  ignore (append path f : (unit, string) result);
  Log.warn ~fields:[ ("reason", Jsonv.Str reason); ("path", Jsonv.Str path) ]
    "flight recorder dump written"

let start_watchdog ?(interval = 0.1) ?stall ?(frame_every = 1.0) ?path ?token ()
    =
  let stop_flag = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        let last_beats = ref (Cancel.heartbeat_total ()) in
        let last_change = ref (Mclock.now ()) in
        let stall_reported = ref false in
        let last_frame = ref (Mclock.now ()) in
        while not (Atomic.get stop_flag) do
          Unix.sleepf interval;
          if not (Atomic.get stop_flag) then begin
            let now = Mclock.now () in
            (* SIGUSR1: operator asked for a look inside *)
            if Atomic.exchange sigusr1_flag false then
              Option.iter (fun p -> write_dump p "SIGUSR1") path;
            (* stall: the checkpoint heartbeat stopped advancing *)
            (match stall with
            | Some limit ->
              let beats = Cancel.heartbeat_total () in
              if beats <> !last_beats then begin
                last_beats := beats;
                last_change := now;
                stall_reported := false
              end
              else if (not !stall_reported) && now -. !last_change >= limit
              then begin
                stall_reported := true;
                let reason =
                  Cancel.reason_to_string (Cancel.Stalled (now -. !last_change))
                in
                match path with
                | Some p -> write_dump p reason
                | None ->
                  Log.warn
                    ~fields:[ ("reason", Jsonv.Str reason) ]
                    "flight recorder: analysis stalled"
              end
            | None -> ());
            (* deadline: cancel even if no checkpoint noticed in time.
               The cancellation hook (when registered) writes the dump,
               so a wedged loop still leaves diagnostics behind. *)
            (match token with
            | Some t -> (
              match (Cancel.cancelled t, Cancel.deadline t) with
              | None, Some dl when now >= dl ->
                Cancel.cancel t
                  (Cancel.Deadline (Option.value ~default:0. (Cancel.budget t)))
              | _ -> ())
            | None -> ());
            (* periodic frame for [tpan top] *)
            match path with
            | Some p when now -. !last_frame >= frame_every ->
              last_frame := now;
              ignore (append p (snapshot ~kind:"frame" ()) : (unit, string) result)
            | _ -> ()
          end
        done)
  in
  { stop_flag; dom }

let stop_watchdog w =
  Atomic.set w.stop_flag true;
  Domain.join w.dom
