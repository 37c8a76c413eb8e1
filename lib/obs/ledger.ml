(* Run records are append-only NDJSON (see [Ndjson]): one JSON object
   per line in <dir>/runs.ndjson. A torn or foreign line is skipped on
   load rather than poisoning the whole history. *)

let schema_version = 1

type stage = { stage : string; seconds : float; count : int }

type record = {
  schema : int;
  version : string;
  timestamp : float;
  subcommand : string;
  argv : string list;
  model : string option;
  trace_id : string option;
  stages : stage list;
  metrics : Jsonv.t;
  report : Jsonv.t option;
  request : Jsonv.t option;
  exit_code : int;
  duration : float;
}

let make ~version ~timestamp ~subcommand ~argv ?model ?trace_id ?(stages = [])
    ?(metrics = Jsonv.List []) ?report ?request ~exit_code ~duration () =
  {
    schema = schema_version;
    version;
    timestamp;
    subcommand;
    argv;
    model;
    trace_id;
    stages;
    metrics;
    report;
    request;
    exit_code;
    duration;
  }

(* Span totals per name, sorted by name: the per-stage breakdown of a
   CLI run (every buffered event) or of one served request (its own
   span tree). *)
let stage_totals (events : Trace.event list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let seconds, count =
        match Hashtbl.find_opt tbl e.name with Some x -> x | None -> (0., 0)
      in
      Hashtbl.replace tbl e.name (seconds +. e.dur, count + 1))
    events;
  Hashtbl.fold (fun stage (seconds, count) acc -> { stage; seconds; count } :: acc) tbl []
  |> List.sort (fun a b -> compare a.stage b.stage)

(* [request] is written only when present, so CLI rows keep their bytes *)
let to_json r =
  Jsonv.Obj
    ([
       ("schema", Jsonv.Int r.schema);
       ("version", Jsonv.Str r.version);
       ("timestamp", Jsonv.Float r.timestamp);
       ("subcommand", Jsonv.Str r.subcommand);
       ("argv", Jsonv.List (List.map (fun a -> Jsonv.Str a) r.argv));
       ("model", match r.model with None -> Jsonv.Null | Some m -> Jsonv.Str m);
       ( "trace_id",
         match r.trace_id with None -> Jsonv.Null | Some t -> Jsonv.Str t );
       ( "stages",
         Jsonv.List
           (List.map
              (fun s ->
                Jsonv.Obj
                  [
                    ("stage", Jsonv.Str s.stage);
                    ("seconds", Jsonv.Float s.seconds);
                    ("count", Jsonv.Int s.count);
                  ])
              r.stages) );
       ("metrics", r.metrics);
       ("report", match r.report with None -> Jsonv.Null | Some j -> j);
     ]
    @ (match r.request with None -> [] | Some j -> [ ("request", j) ])
    @ [ ("exit_code", Jsonv.Int r.exit_code); ("duration", Jsonv.Float r.duration) ])

let of_json doc =
  let open Jsonv in
  let str k = Option.bind (member k doc) to_string_opt in
  let num k = Option.bind (member k doc) to_float_opt in
  let int k = Option.bind (member k doc) to_int_opt in
  match (int "schema", str "version", num "timestamp", str "subcommand") with
  | Some schema, Some version, Some timestamp, Some subcommand ->
    let argv =
      match Option.bind (member "argv" doc) to_list_opt with
      | Some xs -> List.filter_map to_string_opt xs
      | None -> []
    in
    let stages =
      match Option.bind (member "stages" doc) to_list_opt with
      | Some xs ->
        List.filter_map
          (fun s ->
            match
              ( Option.bind (member "stage" s) to_string_opt,
                Option.bind (member "seconds" s) to_float_opt )
            with
            | Some stage, Some seconds ->
              let count =
                match Option.bind (member "count" s) to_int_opt with
                | Some c -> c
                | None -> 0
              in
              Some { stage; seconds; count }
            | _ -> None)
          xs
      | None -> []
    in
    Some
      {
        schema;
        version;
        timestamp;
        subcommand;
        argv;
        model = str "model";
        trace_id = str "trace_id";
        stages;
        metrics = (match member "metrics" doc with Some m -> m | None -> List []);
        report = (match member "report" doc with Some Null | None -> None | Some j -> Some j);
        request = member "request" doc;
        exit_code = (match int "exit_code" with Some c -> c | None -> 0);
        duration = (match num "duration" with Some d -> d | None -> 0.);
      }
  | _ -> None

(* ---------------- aggregate statistics ---------------- *)

type stats_row = { key : string; runs : int; p50 : float; p95 : float; total : float }

type stats = {
  commands : stats_row list;
  stage_stats : stats_row list;
  exit_codes : (int * int) list;
}

(* nearest-rank percentile over a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let row_of key samples =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  {
    key;
    runs = Array.length arr;
    p50 = percentile arr 0.50;
    p95 = percentile arr 0.95;
    total = Array.fold_left ( +. ) 0. arr;
  }

let group_rows pairs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (key, v) ->
      let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
      Hashtbl.replace tbl key (v :: prev))
    pairs;
  Hashtbl.fold (fun key vs acc -> row_of key vs :: acc) tbl []
  |> List.sort (fun a b -> compare a.key b.key)

let stats records =
  let commands =
    group_rows (List.map (fun r -> (r.subcommand, r.duration)) records)
  in
  let stage_stats =
    group_rows
      (List.concat_map
         (fun r -> List.map (fun s -> (s.stage, s.seconds)) r.stages)
         records)
  in
  let codes = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let prev =
        match Hashtbl.find_opt codes r.exit_code with Some n -> n | None -> 0
      in
      Hashtbl.replace codes r.exit_code (prev + 1))
    records;
  let exit_codes =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) codes [] |> List.sort compare
  in
  { commands; stage_stats; exit_codes }

let stats_to_json s =
  let rows l =
    Jsonv.List
      (List.map
         (fun r ->
           Jsonv.Obj
             [
               ("name", Jsonv.Str r.key);
               ("runs", Jsonv.Int r.runs);
               ("p50_seconds", Jsonv.Float r.p50);
               ("p95_seconds", Jsonv.Float r.p95);
               ("total_seconds", Jsonv.Float r.total);
             ])
         l)
  in
  Jsonv.Obj
    [
      ("commands", rows s.commands);
      ("stages", rows s.stage_stats);
      ( "exit_codes",
        Jsonv.Obj
          (List.map
             (fun (c, n) -> (string_of_int c, Jsonv.Int n))
             s.exit_codes) );
    ]

let pp_stats fmt s =
  let open Format in
  pp_open_vbox fmt 0;
  let section title rows unit_label =
    if rows <> [] then begin
      fprintf fmt "%s@," title;
      fprintf fmt "  %-28s %6s %10s %10s %10s@," "name" "runs" "p50" "p95" "total";
      List.iter
        (fun r ->
          fprintf fmt "  %-28s %6d %9.3f%s %9.3f%s %9.3f%s@," r.key r.runs r.p50
            unit_label r.p95 unit_label r.total unit_label)
        rows
    end
  in
  section "per-subcommand wall time" s.commands "s";
  section "per-stage wall time" s.stage_stats "s";
  if s.exit_codes <> [] then begin
    fprintf fmt "exit codes@,";
    List.iter (fun (c, n) -> fprintf fmt "  %3d: %d run(s)@," c n) s.exit_codes
  end;
  pp_close_box fmt ()

(* ---------------- storage ---------------- *)

let default_dir () =
  match Sys.getenv_opt "TPAN_DIR" with
  | Some d when String.trim d <> "" -> d
  | _ -> ".tpan"

let runs_file dir = Filename.concat dir "runs.ndjson"

let append ?dir record =
  let dir = match dir with Some d -> d | None -> default_dir () in
  Ndjson.append (runs_file dir) (to_json record)

let load ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  Result.map fst (Ndjson.load (runs_file dir) of_json)
