module Obs = Tpan_obs
module J = Obs.Jsonv
module Q = Tpan_mathkit.Q

type config = {
  host : string;
  port : int option;
  socket_path : string option;
  deadline : float option;
  max_states : int option;
  slow_ms : float option;
  flight_path : string option;
  ledger_dir : string option;
  max_requests_per_conn : int;
  idle_timeout : float;
  max_inflight : int option;
  max_conns : int;
  warm : string list;
}

let default_config =
  {
    host = "127.0.0.1";
    port = Some 8080;
    socket_path = None;
    deadline = None;
    max_states = None;
    slow_ms = None;
    flight_path = None;
    ledger_dir = None;
    max_requests_per_conn = 1000;
    idle_timeout = 30.;
    max_inflight = None;
    max_conns = 32;
    warm = [];
  }

type response = Http.response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
}

(* ----- telemetry plane -----

   Request accounting is per endpoint: the RED families
   [serve.endpoint.requests{endpoint}], [serve.endpoint.errors{endpoint,type}]
   and [serve.request_duration_s{endpoint}], the latter carrying an
   exemplar trace id per latency bucket. Process-wide totals (/statusz)
   are sums over those series. *)

let start_time = Unix.gettimeofday ()
let m_inflight = lazy (Obs.Metrics.gauge "serve.inflight")

(* Endpoint labels are drawn from the route table (unknown paths all
   collapse into "other"), so label cardinality is bounded no matter
   what clients probe for. *)
let known_endpoints =
  [ "/healthz"; "/metrics"; "/statusz"; "/tracez"; "/analyze"; "/eval"; "/sweep" ]

let normalize_endpoint path = if List.mem path known_endpoints then path else "other"

let ep_requests ep =
  Obs.Metrics.counter_with "serve.endpoint.requests" [ ("endpoint", ep) ]

let ep_errors ep ty =
  Obs.Metrics.counter_with "serve.endpoint.errors"
    [ ("endpoint", ep); ("type", ty) ]

let ep_latency ep =
  Obs.Metrics.histogram_with "serve.request_duration_s" [ ("endpoint", ep) ]

(* The typed-error label is derived from the response status, so every
   error path — raised or returned as a value — classifies the same
   way: 504 deadline crossings are "timeout", protocol rejections
   "http", application analysis failures "app", the rest "internal". *)
let error_type_of_status = function
  | s when s < 400 -> None
  | 504 -> Some "timeout"
  | 400 | 404 | 405 | 408 | 413 | 501 -> Some "http"
  | 422 -> Some "app"
  | 503 -> Some "overload"
  | _ -> Some "internal"

let error_types = [ "timeout"; "http"; "app"; "overload"; "internal" ]

(* /statusz totals are sums over the labelled series, read by full
   series name: [counter_value] is 0 for a series nobody has touched and
   registers none. *)
let series_total name label_sets =
  List.fold_left
    (fun acc labels -> acc + Obs.Metrics.counter_value (name ^ labels))
    0 label_sets

let all_endpoints = "other" :: known_endpoints

let total_requests () =
  series_total "serve.endpoint.requests"
    (List.map (Printf.sprintf "{endpoint=%S}") all_endpoints)

let total_errors types =
  series_total "serve.endpoint.errors"
    (List.concat_map
       (fun ep -> List.map (Printf.sprintf "{endpoint=%S,type=%S}" ep) types)
       all_endpoints)

(* In-flight requests, keyed by trace id: what /statusz shows. *)
type inflight = {
  if_trace_id : string;
  if_name : string;  (* "POST /eval" *)
  if_start : float;
}

let inflight : (string, inflight) Hashtbl.t = Hashtbl.create 16
let inflight_lock = Mutex.create ()

let inflight_add r =
  Mutex.protect inflight_lock (fun () ->
      Hashtbl.replace inflight r.if_trace_id r;
      Obs.Metrics.Gauge.set (Lazy.force m_inflight)
        (float_of_int (Hashtbl.length inflight)))

let inflight_remove r =
  Mutex.protect inflight_lock (fun () ->
      Hashtbl.remove inflight r.if_trace_id;
      Obs.Metrics.Gauge.set (Lazy.force m_inflight)
        (float_of_int (Hashtbl.length inflight)))

let inflight_list () =
  Mutex.protect inflight_lock (fun () ->
      Hashtbl.fold (fun _ r acc -> r :: acc) inflight [])
  |> List.sort (fun a b -> compare a.if_start b.if_start)

(* [Http_error] is a protocol-level rejection (bad route, bad JSON);
   application failures come back from [Tpan.Query.run] as
   [Tpan.Error.t] values and keep their exit codes in the envelope. *)
exception Http_error of int * string

let bad msg = raise (Http_error (400, msg))

(* ----- admission control -----

   Analysis requests (the POST endpoints) pass through a small admission
   gate: at most [max_inflight] compute concurrently, up to twice that
   many wait their turn, and anything beyond is turned away immediately
   with [503 + Retry-After] rather than queued into a latency cliff.
   Introspection endpoints never queue — an overloaded server must still
   answer /metrics and /statusz. *)

module Admission = struct
  exception Overloaded of int (* suggested Retry-After, seconds *)

  let lock = Mutex.create ()
  let turnstile = Condition.create ()
  let active = ref 0
  let waiting = ref 0
  (* looked up per bump rather than forced from a [lazy]: forcing one
     [lazy] from two domains at once raises [CamlinternalLazy.Undefined] *)
  let m_queued () = Obs.Metrics.counter "serve.admission.queued"
  let m_rejected () = Obs.Metrics.counter "serve.admission.rejected"

  let with_slot config f =
    match config.max_inflight with
    | None -> f ()
    | Some limit ->
      let limit = max 1 limit in
      Mutex.lock lock;
      if !active >= limit && !waiting >= 2 * limit then begin
        Mutex.unlock lock;
        Obs.Metrics.Counter.incr (m_rejected ());
        raise (Overloaded 1)
      end;
      if !active >= limit then begin
        incr waiting;
        Obs.Metrics.Counter.incr (m_queued ());
        while !active >= limit do
          Condition.wait turnstile lock
        done;
        decr waiting
      end;
      incr active;
      Mutex.unlock lock;
      Fun.protect f ~finally:(fun () ->
          Mutex.lock lock;
          decr active;
          Condition.signal turnstile;
          Mutex.unlock lock)
end

(* ----- request JSON helpers ----- *)

(* Floats decode to their exact binary rational, so a client sending
   [0.25] and one sending ["1/4"] hit the same cache key downstream, and
   [1e19] means the same as ["10000000000000000000"]: a finite float is
   m * 2^e with 0.5 <= |m| < 1, so m * 2^53 is an integer that fits an
   int exactly, whatever the magnitude of the float. *)
let q_of_float f =
  if not (Float.is_finite f) then bad "non-finite number"
  else if Float.is_integer f && Float.abs f < 0x1p62 then Q.of_int (int_of_float f)
  else begin
    let m, e = Float.frexp f in
    let mant = Q.of_int (int_of_float (Float.ldexp m 53)) and e = e - 53 in
    let scale =
      Q.of_bigint (Tpan_mathkit.Bigint.pow (Tpan_mathkit.Bigint.of_int 2) (abs e))
    in
    if e >= 0 then Q.mul mant scale else Q.div mant scale
  end

let q_of_json field = function
  | J.Int n -> Q.of_int n
  | J.Float f -> q_of_float f
  | J.Str s -> (
    try Q.of_decimal_string s
    with _ -> bad
        (Printf.sprintf "%s: %s is not a rational (use \"a/b\" or decimal)" field
           (Tpan.Error.quote s)))
  | _ -> bad (Printf.sprintf "%s: expected a number or rational string" field)

let obj_of_body body =
  if String.trim body = "" then bad "empty body (expected a JSON object)"
  else
    match J.of_string body with
    | Ok (J.Obj _ as o) -> o
    | Ok _ -> bad "request body must be a JSON object"
    | Error e -> bad ("malformed JSON body: " ^ e)

let str_field field obj =
  match J.member field obj with
  | Some (J.Str s) -> Some s
  | Some _ -> bad (Printf.sprintf "%s: expected a string" field)
  | None -> None

let int_field field obj =
  match J.member field obj with
  | None -> None
  | Some v -> (
    match J.to_int_opt v with
    | Some n -> Some n
    | None -> bad (Printf.sprintf "%s: expected an integer" field))

let str_list_field field obj =
  match J.member field obj with
  | None -> []
  | Some (J.List vs) ->
    List.map
      (function
        | J.Str s -> s | _ -> bad (Printf.sprintf "%s: expected strings" field))
      vs
  | Some _ -> bad (Printf.sprintf "%s: expected a list of strings" field)

let bindings_field field obj =
  match J.member field obj with
  | None -> []
  | Some (J.Obj kvs) ->
    (* evaluation takes a name's first binding while the memo key sorts
       them all, so a repeat would make the answer depend on cache state *)
    let rec repeated = function
      | a :: (b :: _ as rest) -> if a = b then Some a else repeated rest
      | _ -> None
    in
    (match repeated (List.sort String.compare (List.map fst kvs)) with
     | Some k -> bad (Printf.sprintf "%s: variable %s is bound twice" field (Tpan.Error.quote k))
     | None -> ());
    List.map (fun (k, v) -> (k, q_of_json (field ^ "." ^ k) v)) kvs
  | Some _ -> bad (Printf.sprintf "%s: expected an object of variable bindings" field)

let json ?(headers = []) status doc =
  {
    status;
    content_type = "application/json";
    body = J.to_string_hum doc ^ "\n";
    headers;
  }

let error_response ?(headers = []) status ~exit_code msg =
  json ~headers status
    (Tpan.Query.envelope ~kind:"error" ~net_hash:None ~exit_code [ ("error", J.Str msg) ])

(* ----- the query endpoints -----

   A POST body decodes into one [Tpan.Query.t], answered by the same
   [Query.run] the CLI calls. What stays here guards the socket's input:
   the body's shape, the grid-point cap and the jobs cap.

   A body names its net with exactly one of ["model"] (builtin, with
   optional ["params"]) or ["net"] (inline .tpn source). Both land on
   the same canonicalized artifact keys, so a model requested by name
   and the same net posted as source share cache entries. *)

let net_of_body obj =
  match (str_field "model" obj, str_field "net" obj) with
  | Some name, None -> Tpan.Query.Model { name; params = bindings_field "params" obj }
  | None, Some src ->
    if J.member "params" obj <> None then
      bad "params: only builtin models take parameters (edit the net source)";
    Tpan.Query.Source src
  | _ -> bad "body must carry exactly one of \"model\" or \"net\""

let axes_field obj =
  match J.member "axes" obj with
  | None | Some (J.List []) -> bad "axes: at least one axis required"
  | Some (J.List vs) ->
    List.map
      (function
        | J.Str spec -> (
          match Tpan_perf.Sweep.parse_axis spec with
          | Ok a -> a
          | Error e -> bad ("axes: " ^ e))
        | J.Obj _ as a ->
          let name =
            match str_field "name" a with Some n -> n | None -> bad "axes[].name: required"
          in
          let get f =
            match J.member f a with
            | Some v -> q_of_json ("axes[]." ^ f) v
            | None -> bad (Printf.sprintf "axes[].%s: required" f)
          in
          let steps =
            match int_field "steps" a with Some s when s >= 1 -> s | _ -> bad "axes[].steps: positive integer required"
          in
          { Tpan_perf.Sweep.name; lo = get "lo"; hi = get "hi"; steps }
        | _ -> bad "axes: expected axis objects or \"NAME=LO..HI:STEPS\" strings")
      vs
  | Some _ -> bad "axes: expected a list"

(* A grid's point count is the product of its axes' steps, known before
   any point is generated. Without a bound, one request could ask for a
   billion-element axis; the product saturates instead of overflowing. *)
let max_sweep_points = 10_000

let grid_points axes =
  List.fold_left
    (fun n (a : Tpan_perf.Sweep.axis) ->
      if n > max_int / a.steps then max_int else n * a.steps)
    1 axes

let query_of_body config path obj =
  let net = net_of_body obj in
  let max_states =
    match int_field "max_states" obj with Some _ as s -> s | None -> config.max_states
  in
  match path with
  | "/analyze" ->
    Tpan.Query.Analyze { net; max_states; throughputs = str_list_field "throughputs" obj }
  | "/eval" ->
    let transition =
      match str_field "transition" obj with
      | Some t -> t
      | None -> bad "transition: required"
    in
    Tpan.Query.Eval { net; max_states; transition; point = bindings_field "point" obj }
  | _ (* "/sweep" *) ->
    let transitions = str_list_field "transitions" obj in
    let bindings = bindings_field "bindings" obj in
    let axes = axes_field obj in
    if grid_points axes > max_sweep_points then
      bad (Printf.sprintf "axes: the grid has more than %d points" max_sweep_points);
    (* the client picks the fan-out, but never beyond what [-j 0] would
       use: each extra lane is a domain spawned for this one request *)
    let jobs =
      Option.map (min (Tpan_par.Pool.recommended_jobs ())) (int_field "jobs" obj)
    in
    Tpan.Query.Sweep { net; max_states; transitions; bindings; axes; jobs }

(* A dispatched request answers its response, its net hash and its
   exit code: the last two go to the request's ledger row. *)
let answer query =
  let net_hash, outcome = Tpan.Query.run query in
  let status, exit_code =
    match outcome with
    | Ok _ -> (200, 0)
    | Error e -> (Tpan.Error.http_status e, Tpan.Error.exit_code e)
  in
  (json status (Tpan.Query.to_json ~net_hash outcome), net_hash, exit_code)

(* ----- introspection endpoints ----- *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let html_page ~title body =
  Printf.sprintf
    "<!doctype html>\n\
     <html><head><meta charset=\"utf-8\"><title>%s</title><style>body{font-family:ui-monospace,SFMono-Regular,Menlo,monospace;margin:1.5em}table{border-collapse:collapse;margin:.8em 0}td,th{border:1px solid #bbb;padding:2px 10px;text-align:left}th{background:#eee}h1{font-size:1.2em}h2{font-size:1em;margin-top:1.2em}.slow{color:#b00;font-weight:bold}</style></head><body><h1>%s</h1>%s</body></html>\n"
    (html_escape title) (html_escape title) body

let html status body =
  { status; content_type = "text/html; charset=utf-8"; body; headers = [] }

let table headers rows =
  let cell tag s = Printf.sprintf "<%s>%s</%s>" tag s tag in
  let tr cells tag = cell "tr" (String.concat "" (List.map (cell tag) cells)) in
  cell "table" (String.concat "" (tr headers "th" :: List.map (fun r -> tr r "td") rows))

let cache_stats_json () =
  List.map
    (fun (kind, (s : Tpan_cache.Cache.stats)) ->
      let total = s.hits + s.misses in
      J.Obj
        [
          ("kind", J.Str kind);
          ("hits", J.Int s.hits);
          ("misses", J.Int s.misses);
          ("evictions", J.Int s.evictions);
          ("entries", J.Int s.entries);
          ("bytes", J.Int s.bytes);
          ( "hit_ratio",
            if total = 0 then J.Null
            else J.Float (float_of_int s.hits /. float_of_int total) );
        ])
    (Tpan.Artifact.cache_stats ())

let statusz_json () =
  let now = Unix.gettimeofday () in
  let gc = Gc.quick_stat () in
  let infl = inflight_list () in
  J.Obj
    [
      ("schema", J.Int 1);
      ("service", J.Str "tpan-serve");
      ("version", J.Str Tpan.Version.string);
      ("pid", J.Int (Unix.getpid ()));
      ("now", J.Float now);
      ("uptime_s", J.Float (now -. start_time));
      ( "requests",
        J.Obj
          [
            ("total", J.Int (total_requests ()));
            ("errors", J.Int (total_errors error_types));
            ("timeouts", J.Int (total_errors [ "timeout" ]));
            ("inflight", J.Int (List.length infl));
          ] );
      ("caches", J.List (cache_stats_json ()));
      ( "heartbeats",
        J.List
          (List.map
             (fun (lane, beats) ->
               J.Obj [ ("lane", J.Int lane); ("beats", J.Int beats) ])
             (Obs.Cancel.heartbeats ())) );
      ( "gc",
        J.Obj
          [
            ("heap_words", J.Int gc.Gc.heap_words);
            ("top_heap_words", J.Int gc.Gc.top_heap_words);
            ("minor_collections", J.Int gc.Gc.minor_collections);
            ("major_collections", J.Int gc.Gc.major_collections);
            ("compactions", J.Int gc.Gc.compactions);
          ] );
      ( "inflight",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("trace_id", J.Str r.if_trace_id);
                   ("request", J.Str r.if_name);
                   ("age_s", J.Float (now -. r.if_start));
                 ])
             infl) );
    ]

let statusz_html () =
  let now = Unix.gettimeofday () in
  let infl = inflight_list () in
  let summary =
    Printf.sprintf
      "<p>%s pid %d &middot; uptime %.1fs &middot; %d requests (%d errors, %d \
       timeouts) &middot; %d in flight</p>"
      (html_escape Tpan.Version.string)
      (Unix.getpid ()) (now -. start_time)
      (total_requests ()) (total_errors error_types) (total_errors [ "timeout" ])
      (List.length infl)
  in
  let caches =
    table
      [ "cache"; "hits"; "misses"; "hit ratio"; "entries"; "bytes"; "evictions" ]
      (List.map
         (fun (kind, (s : Tpan_cache.Cache.stats)) ->
           let total = s.hits + s.misses in
           [
             html_escape kind;
             string_of_int s.hits;
             string_of_int s.misses;
             (if total = 0 then "-"
              else Printf.sprintf "%.3f" (float_of_int s.hits /. float_of_int total));
             string_of_int s.entries;
             string_of_int s.bytes;
             string_of_int s.evictions;
           ])
         (Tpan.Artifact.cache_stats ()))
  in
  let inflight_tbl =
    table
      [ "trace_id"; "request"; "age (s)" ]
      (List.map
         (fun r ->
           [
             html_escape r.if_trace_id;
             html_escape r.if_name;
             Printf.sprintf "%.3f" (now -. r.if_start);
           ])
         infl)
  in
  html_page ~title:"tpan serve: statusz"
    (summary ^ "<h2>artifact caches</h2>" ^ caches ^ "<h2>in-flight requests</h2>"
   ^ inflight_tbl)

let tracez_html () =
  let sections =
    List.map
      (fun (name, buckets, errors) ->
        let bucket_tbl =
          table
            [ "bucket"; "seen"; "retained" ]
            (List.map
               (fun (b : Obs.Tracez.bucket_view) ->
                 [
                   html_escape b.label;
                   string_of_int b.seen;
                   string_of_int (List.length b.entries);
                 ])
               (buckets @ [ errors ]))
        in
        let recent =
          List.concat_map (fun (b : Obs.Tracez.bucket_view) -> b.entries) buckets
          |> List.sort (fun (a : Obs.Tracez.entry) b -> compare b.start a.start)
        in
        let recent_tbl =
          table
            [ "trace_id"; "status"; "duration (ms)"; "spans" ]
            (List.map
               (fun (e : Obs.Tracez.entry) ->
                 [
                   html_escape e.trace_id;
                   (if e.slow then
                      Printf.sprintf "<span class=\"slow\">%d slow</span>" e.status
                    else string_of_int e.status);
                   Printf.sprintf "%.3f" (e.dur *. 1000.);
                   string_of_int (List.length e.spans);
                 ])
               recent)
        in
        Printf.sprintf "<h2>%s</h2>%s%s" (html_escape name) bucket_tbl recent_tbl)
      (Obs.Tracez.snapshot ())
  in
  html_page ~title:"tpan serve: tracez" (String.concat "" sections)

let wants_html query =
  match List.assoc_opt "format" query with Some "html" -> true | _ -> false

(* ----- dispatch ----- *)

let dispatch config ~meth ~path ~query ~body =
  let introspection resp = (resp, None, 0) in
  match (meth, path) with
  | "GET", "/healthz" ->
    introspection (json 200 (J.Obj [ ("schema", J.Int 2); ("status", J.Str "ok") ]))
  | "GET", "/metrics" ->
    introspection
      {
        status = 200;
        content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8";
        body = Obs.Metrics.to_openmetrics ();
        headers = [];
      }
  | "GET", "/statusz" ->
    introspection
      (if wants_html query then html 200 (statusz_html ()) else json 200 (statusz_json ()))
  | "GET", "/tracez" ->
    introspection
      (if wants_html query then html 200 (tracez_html ())
       else json 200 (Obs.Tracez.to_json ()))
  | "POST", ("/analyze" | "/eval" | "/sweep") ->
    Admission.with_slot config (fun () -> answer (query_of_body config path (obj_of_body body)))
  | _, ("/healthz" | "/metrics" | "/statusz" | "/tracez" | "/analyze" | "/eval" | "/sweep") ->
    raise (Http_error (405, Printf.sprintf "%s not allowed here" meth))
  | _ -> raise (Http_error (404, "no such endpoint"))

(* ----- the request wrapper: metrics, tracez, ledger ----- *)

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
    let path = String.sub target 0 i in
    let qs = String.sub target (i + 1) (String.length target - i - 1) in
    let params =
      List.filter_map
        (fun kv ->
          if kv = "" then None
          else
            match String.index_opt kv '=' with
            | Some j ->
              Some
                ( String.sub kv 0 j,
                  String.sub kv (j + 1) (String.length kv - j - 1) )
            | None -> Some (kv, ""))
        (String.split_on_char '&' qs)
    in
    (path, params)

(* A served request's ledger row, its only persisted record: the row's
   [request] object carries the HTTP facts. Built from values [handle]
   already holds, so it takes no cache mutex. *)
let ledger_row config ~req ~endpoint ~meth ~path ~body ~resp ~net_hash ~exit_code ~dur
    ~spans =
  match config.ledger_dir with
  | None -> ()
  | Some dir -> (
    let request =
      J.Obj
        [
          ("method", J.Str meth);
          ("path", J.Str path);
          ("status", J.Int resp.status);
          ("body_bytes", J.Int (String.length body));
          ("resp_bytes", J.Int (String.length resp.body));
          ("net_hash", match net_hash with Some h -> J.Str h | None -> J.Null);
          ( "deadline_budget_s",
            match config.deadline with Some b -> J.Float b | None -> J.Null );
          ( "deadline_consumed",
            match config.deadline with
            | Some b when b > 0. -> J.Float (dur /. b)
            | _ -> J.Null );
        ]
    in
    let row =
      Obs.Ledger.make ~version:Tpan.Version.string ~timestamp:req.if_start
        ~subcommand:("serve:" ^ endpoint)
        ~argv:[ "serve"; req.if_name ]
        ~trace_id:req.if_trace_id ~stages:(Obs.Ledger.stage_totals spans) ~request
        ~exit_code ~duration:dur ()
    in
    match Obs.Ledger.append ~dir row with
    | Ok () -> ()
    | Error e -> Obs.Log.warn "serve: ledger append failed" ~fields:[ ("error", J.Str e) ])

let handle config ~meth ~target ~body =
  let t0 = Unix.gettimeofday () in
  let path, query = split_target target in
  let endpoint = normalize_endpoint path in
  let name = meth ^ " " ^ endpoint in
  let ctx = Obs.Context.make ?deadline:config.deadline () in
  let tid = ctx.Obs.Context.trace_id in
  let req = { if_trace_id = tid; if_name = name; if_start = t0 } in
  (* the request's spans stay its own until it drains them below *)
  Obs.Trace.keep_events ~trace_id:tid;
  Obs.Metrics.Counter.incr (ep_requests endpoint);
  inflight_add req;
  let failed ?headers status ~exit_code msg =
    (error_response ?headers status ~exit_code msg, None, exit_code)
  in
  let resp, net_hash, exit_code =
    Obs.Context.with_ctx ctx (fun () ->
        try dispatch config ~meth ~path ~query ~body with
        | Http_error (status, msg) -> failed status ~exit_code:2 msg
        | Admission.Overloaded retry_after ->
          failed
            ~headers:[ ("Retry-After", string_of_int retry_after) ]
            503 ~exit_code:1 "server overloaded, try again shortly"
        | Obs.Cancel.Cancelled reason ->
          failed 504 ~exit_code:6 (Obs.Cancel.reason_to_string reason)
        | exn -> failed 500 ~exit_code:1 (Printexc.to_string exn))
  in
  let dur = Unix.gettimeofday () -. t0 in
  inflight_remove req;
  Obs.Metrics.Histogram.observe ~trace_id:tid (ep_latency endpoint) dur;
  (match error_type_of_status resp.status with
  | Some ty -> Obs.Metrics.Counter.incr (ep_errors endpoint ty)
  | None -> ());
  let slow = match config.slow_ms with Some ms -> dur *. 1000. >= ms | None -> false in
  let spans = Obs.Trace.take_events ~trace_id:tid in
  Obs.Tracez.record
    { trace_id = tid; name; status = resp.status; start = t0; dur; slow; spans };
  if slow then (
    match config.flight_path with
    | Some p ->
      Obs.Dump.write_dump ~trace_id:tid p
        (Printf.sprintf "slow-request %s %.1fms" name (dur *. 1000.))
    | None -> ());
  ledger_row config ~req ~endpoint ~meth ~path ~body ~resp ~net_hash ~exit_code ~dur ~spans;
  resp

(* ----- the HTTP/1.1 listener -----

   Connections are persistent: each one parses requests in a loop from
   a buffer that survives across requests (the pipelining window),
   honours [Connection: close]/[keep-alive], and is bounded by
   [max_requests_per_conn] and an idle timeout carried by a
   {!Obs.Cancel} deadline token. {!Http} does the framing; the loop
   here only reads, waits and writes. One accept loop on the calling
   domain watches every listener; each accepted connection is then
   served on its own domain (see {!Conns}), so a parked keep-alive
   client never blocks the accept loop. *)

(* The client vanished: EOF or EPIPE/ECONNRESET at the wrong moment.
   Never fatal — the connection is counted, logged and dropped. *)
exception Client_gone of string

exception Shutting_down

(* bumped from any connection domain, so looked up per bump, like the
   admission counters *)
let m_client_aborts () = Obs.Metrics.counter "serve.client_aborts"

(* ----- shutdown plumbing: the self-pipe -----

   Signal handlers set the stop flag and write one byte to a pipe that
   every blocking select on every domain watches, so shutdown breaks
   those waits immediately — the seed's accept loop instead polled on a
   fixed 0.25s tick, quantizing shutdown latency (and, with keep-alive,
   it would have quantized idle reaping too). The byte is deliberately
   never drained: once stopping, every selector must keep waking. *)

let stop = Atomic.make false
let wake_write : Unix.file_descr option Atomic.t = Atomic.make None

let request_stop () =
  Atomic.set stop true;
  match Atomic.get wake_write with
  | Some fd -> (
    try ignore (Unix.write fd (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ())
  | None -> ()

let shutdown = request_stop

let install_signals () =
  let h = Sys.Signal_handle (fun _ -> request_stop ()) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h;
  (* a peer closing mid-response must surface as EPIPE on the write,
     not kill the process *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* ----- buffered connection reads ----- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (** bytes read but not yet consumed *)
  wake : Unix.file_descr option;
}

let wait_readable conn ~deadline =
  let rec go () =
    if Atomic.get stop then raise Shutting_down;
    let timeout = deadline -. Obs.Mclock.now () in
    if timeout <= 0. then `Timeout
    else begin
      (* heartbeat per wait, so /statusz shows live lanes even when every
         connection is parked in a keep-alive read *)
      Obs.Cancel.checkpoint ();
      match Unix.select (conn.fd :: Option.to_list conn.wake) [] [] timeout with
      | [], _, _ -> `Timeout
      | fds, _, _ ->
        if Atomic.get stop then raise Shutting_down
        else if List.memq conn.fd fds then `Readable
        else raise Shutting_down (* only the wake pipe fired *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ()

(* One read into the connection buffer. [`Again] covers EINTR and
   spurious wakeups — callers loop, and the select above keeps the loop
   from spinning on a silent socket. *)
let refill conn ~deadline =
  match wait_readable conn ~deadline with
  | `Timeout -> `Timeout
  | `Readable -> (
    let chunk = Bytes.create 65536 in
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
      Buffer.add_subbytes conn.inbuf chunk 0 n;
      `Filled
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      -> `Again
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise (Client_gone "read: peer reset"))

let consume conn k =
  let rest = Buffer.sub conn.inbuf k (Buffer.length conn.inbuf - k) in
  Buffer.clear conn.inbuf;
  Buffer.add_string conn.inbuf rest

(* The idle budget rides on a [Cancel] deadline token — the same
   machinery request deadlines use — so the absolute instant the wait
   gives up at is computed once, not re-derived per select round. *)
let idle_deadline config =
  let token = Obs.Cancel.create ~deadline_in:(max 0.01 config.idle_timeout) () in
  match Obs.Cancel.deadline token with
  | Some d -> d
  | None -> Obs.Mclock.now () +. config.idle_timeout

(* The next request off the connection, or [None] on a clean
   end-of-stream / idle expiry between requests. One idle budget covers
   the whole request, head and body: a client that committed bytes and
   stalled past it is answered 408, and a refusal from the codec is
   raised as the [Http_error] it names. *)
let read_request config conn =
  let deadline = idle_deadline config in
  let rec go ~from ~need =
    if Buffer.length conn.inbuf < need then begin
      let idle = Buffer.length conn.inbuf = 0 in
      match refill conn ~deadline with
      | `Filled | `Again -> go ~from ~need
      | `Timeout -> if idle then None else raise (Http_error (408, "timed out reading request"))
      | `Eof -> if idle then None else raise (Client_gone "eof inside request")
    end
    else
      match Http.decode_request ~from conn.inbuf with
      | Http.Complete (req, used) ->
        consume conn used;
        Some req
      | Http.Malformed (status, msg) -> raise (Http_error (status, msg))
      | Http.Incomplete { from; need } -> go ~from ~need
  in
  go ~from:0 ~need:0

(* ----- response writes ----- *)

(* Retries short writes, EINTR and EAGAIN (a slow client draining a
   large /sweep grid); EPIPE/ECONNRESET abort just this connection. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (match Unix.select [] [ fd ] [] 1.0 with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise (Client_gone "write: peer closed")
  in
  go 0

let write_response config fd resp ~keep =
  write_all fd
    (Http.encode_response resp
       ~keep_alive:(if keep then Some (max 1 (int_of_float config.idle_timeout)) else None))

(* A request rejected while framing (bad head, stalled read, oversize or
   chunked body) never reaches [handle] and has no route: it counts as an
   "http" error of the "other" endpoint. *)
let note_framing_error () = Obs.Metrics.Counter.incr (ep_errors "other" "http")

let serve_connection config conn =
  let limit =
    if config.max_requests_per_conn <= 0 then max_int
    else config.max_requests_per_conn
  in
  let rec next served =
    if Atomic.get stop || served >= limit then ()
    else
      match read_request config conn with
      | None -> () (* clean close: idle expiry or end-of-stream *)
      | Some req ->
        let resp = handle config ~meth:req.meth ~target:req.target ~body:req.body in
        (* whatever [handle] answers, a 400 included, leaves the stream in
           step: its body was read whole. Framing failures are raised
           before it and close below, since resynchronizing on a suspect
           stream risks reading body bytes as a request line. *)
        let keep = Http.keep_alive req && served + 1 < limit && not (Atomic.get stop) in
        write_response config conn.fd resp ~keep;
        if keep then next (served + 1)
  in
  try next 0 with
  | Shutting_down -> ()
  | Http_error (status, msg) ->
    note_framing_error ();
    (try write_response config conn.fd (error_response status ~exit_code:2 msg) ~keep:false
     with Client_gone _ -> ())
  | Client_gone reason ->
    Obs.Metrics.Counter.incr (m_client_aborts ());
    Obs.Log.debug "serve: client gone" ~fields:[ ("reason", J.Str reason) ]

(* ----- per-connection service domains -----

   With keep-alive as the HTTP/1.1 default, serving a connection inline
   in the accept loop would let one parked client pin the loop for up
   to [max_requests_per_conn] requests and starve every other client
   behind it. Each accepted socket therefore runs on its own domain,
   bounded by [config.max_conns]; finished domains are joined
   opportunistically on later accepts and drained at shutdown. When the
   budget is spent (or the runtime refuses another domain), the accept
   loop serves the connection inline but capped to a single request
   with a forced [Connection: close] — head-of-line blocking bounded to
   one request instead of an unbounded keep-alive session. *)

module Conns = struct
  type handle = { dom : unit Domain.t; finished : bool Atomic.t }

  let lock = Mutex.create ()
  let live : handle list ref = ref []
  let m_active = lazy (Obs.Metrics.gauge "serve.conns.active")
  let m_inline = lazy (Obs.Metrics.counter "serve.conns.inline_served")

  (* [finished] flips in the domain's last finalizer, so a handle
     carrying it joins without blocking. *)
  let reap () =
    let done_ =
      Mutex.protect lock (fun () ->
          let done_, rest =
            List.partition (fun h -> Atomic.get h.finished) !live
          in
          live := rest;
          Obs.Metrics.Gauge.set (Lazy.force m_active)
            (float_of_int (List.length rest));
          done_)
    in
    List.iter (fun h -> Domain.join h.dom) done_

  let try_spawn ~limit f =
    reap ();
    Mutex.protect lock (fun () ->
        if List.length !live >= limit then false
        else begin
          let finished = Atomic.make false in
          match
            Domain.spawn (fun () ->
                Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
          with
          | dom ->
            live := { dom; finished } :: !live;
            Obs.Metrics.Gauge.set (Lazy.force m_active)
              (float_of_int (List.length !live));
            true
          | exception _ ->
            (* the runtime's domain budget is exhausted (pool workers,
               other servers in-process): fall back to inline service *)
            false
        end)

  let note_inline () = Obs.Metrics.Counter.incr (Lazy.force m_inline)

  let drain () =
    let hs =
      Mutex.protect lock (fun () ->
          let hs = !live in
          live := [];
          hs)
    in
    List.iter (fun h -> Domain.join h.dom) hs;
    Obs.Metrics.Gauge.set (Lazy.force m_active) 0.
end

(* ----- listeners and the accept loop ----- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let bind_tcp host port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen s 128;
    Unix.set_nonblock s
  with
  | () -> s
  | exception e ->
    close_quietly s;
    raise e

let bound_port s =
  match Unix.getsockname s with Unix.ADDR_INET (_, p) -> Some p | _ -> None

let run ?(ready = fun _ -> ()) config =
  Atomic.set stop false;
  install_signals ();
  let wake_read, wake_w = Unix.pipe () in
  Atomic.set wake_write (Some wake_w);
  let tcp = Option.map (bind_tcp config.host) config.port in
  let tcp_port = Option.bind tcp bound_port in
  let unix_sock =
    Option.map
      (fun path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_UNIX path);
        Unix.listen s 128;
        Unix.set_nonblock s;
        s)
      config.socket_path
  in
  let listeners = Option.to_list tcp @ Option.to_list unix_sock in
  if listeners = [] then
    invalid_arg "serve: no listen address (need a port or a socket path)";
  (* warm the artifact caches before announcing ready: the listeners
     already hold the port (connections queue in the backlog), but
     [ready] and the log line wait until requests will be answered from
     a hot cache *)
  if config.warm <> [] then begin
    let t0 = Obs.Mclock.now () in
    List.iter
      (fun (name, result) ->
        match result with
        | Ok () -> Obs.Log.info "serve: warmed" ~fields:[ ("model", J.Str name) ]
        | Error e ->
          Obs.Log.warn "serve: warm failed"
            ~fields:
              [ ("model", J.Str name); ("error", J.Str (Tpan.Error.to_string e)) ])
      (Tpan.Artifact.warm ?max_states:config.max_states config.warm);
    Obs.Log.info "serve: warm-up complete"
      ~fields:
        [
          ("models", J.Int (List.length config.warm));
          ("seconds", J.Float (Obs.Mclock.now () -. t0));
        ]
  end;
  ready tcp_port;
  Obs.Log.info "serve: listening"
    ~fields:
      [
        ("port", (match tcp_port with Some p -> J.Int p | None -> J.Null));
        ( "socket",
          match config.socket_path with Some p -> J.Str p | None -> J.Null );
        ( "slow_ms",
          match config.slow_ms with Some ms -> J.Float ms | None -> J.Null );
      ];
  (* Accept one connection; [None] means retry (spurious wakeup, EAGAIN
     race) or shutdown. The select blocks without a timeout — the wake
     pipe is the only way out. *)
  let accept_once () =
    if Atomic.get stop then None
    else begin
      Obs.Cancel.checkpoint ();
      match Unix.select (wake_read :: listeners) [] [] (-1.) with
      | fds, _, _ ->
        if Atomic.get stop then None
        else
          List.find_map
            (fun s ->
              if not (List.memq s fds) then None
              else
                match Unix.accept s with
                | fd, _ -> Some fd
                | exception
                    Unix.Unix_error
                      ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                        | Unix.ECONNABORTED ),
                        _,
                        _ ) ->
                  None
                | exception Unix.Unix_error (err, _, _) ->
                  (* EMFILE/ENFILE under fd exhaustion, and anything
                     else unexpected, must never escape and end the
                     loop: the listeners would stay bound, and clients
                     would queue on a port nobody answers. Log, back off
                     briefly so a persistent condition can't spin the
                     loop, retry. *)
                  Obs.Log.warn "serve: accept failed"
                    ~fields:[ ("error", J.Str (Unix.error_message err)) ];
                  Unix.sleepf 0.05;
                  None)
            listeners
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
      | exception Unix.Unix_error (err, _, _) ->
        Obs.Log.warn "serve: accept select failed"
          ~fields:[ ("error", J.Str (Unix.error_message err)) ];
        Unix.sleepf 0.05;
        None
    end
  in
  while not (Atomic.get stop) do
    match accept_once () with
    | None -> ()
    | Some fd ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
      let conn = { fd; inbuf = Buffer.create 4096; wake = Some wake_read } in
      let serve config =
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            try serve_connection config conn
            with exn ->
              Obs.Log.warn "serve: connection failed"
                ~fields:[ ("error", J.Str (Printexc.to_string exn)) ])
      in
      let spawned =
        Conns.try_spawn ~limit:(max 1 config.max_conns) (fun () -> serve config)
      in
      if not spawned then begin
        Conns.note_inline ();
        serve { config with max_requests_per_conn = 1 }
      end
  done;
  (* connection domains select on the wake pipe: drain them before any
     fd below closes under them *)
  Conns.drain ();
  Atomic.set wake_write None;
  List.iter close_quietly listeners;
  close_quietly wake_read;
  close_quietly wake_w;
  (match config.socket_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ());
  Obs.Log.info "serve: shutdown complete"
