(* The analysis service, driven through [Serve.handle] — the exact
   request path the socket listener dispatches to (context minting,
   artifact cache, schema-2 envelopes, status mapping) without the
   socket. The end-to-end socket path is CI's tier-2 smoke test. *)

module Serve = Tpan_serve.Serve
module J = Tpan_obs.Jsonv

let handle ?(config = Serve.default_config) meth target body =
  Serve.handle config ~meth ~target ~body

let parse_body (r : Serve.response) =
  match J.of_string r.Serve.body with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e r.Serve.body

let field doc k =
  match J.member k doc with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" k

let eval_body =
  {|{"model":"stopwait-sym","transition":"t7","point":{
      "E(t3)":"250","F(t1)":"1","F(t2)":"1","F(t3)":"1",
      "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
      "F(t8)":"106.7","F(t9)":"106.7",
      "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}

let test_healthz_and_routing () =
  let r = handle "GET" "/healthz" "" in
  Alcotest.(check int) "healthz 200" 200 r.Serve.status;
  Alcotest.(check int) "unknown path 404" 404 (handle "GET" "/nope" "").Serve.status;
  Alcotest.(check int) "wrong method 405" 405 (handle "GET" "/eval" "").Serve.status;
  Alcotest.(check int) "bad JSON 400" 400 (handle "POST" "/eval" "not json").Serve.status;
  Alcotest.(check int) "missing net 400" 400 (handle "POST" "/eval" "{}").Serve.status;
  let r =
    handle "POST" "/analyze" {|{"model":"stopwait","throughputs":["nosuch"]}|}
  in
  Alcotest.(check int) "unknown transition 400" 400 r.Serve.status;
  let doc = parse_body r in
  Alcotest.(check bool) "names the transition" true
    (field doc "error" = J.Str {|unknown transition "nosuch"|});
  Alcotest.(check bool) "input-error exit code" true (field doc "exit_code" = J.Int 2);
  (match field doc "net_hash" with
   | J.Str h -> Alcotest.(check int) "error envelope carries the net hash" 32 (String.length h)
   | _ -> Alcotest.fail "net_hash must be a string");
  let r = handle "GET" "/metrics" "" in
  Alcotest.(check int) "metrics 200" 200 r.Serve.status

let test_analyze_envelope () =
  let r = handle "POST" "/analyze" {|{"model":"stopwait","throughputs":["t7"]}|} in
  Alcotest.(check int) "analyze 200" 200 r.Serve.status;
  let doc = parse_body r in
  Alcotest.(check bool) "schema 2" true (field doc "schema" = J.Int 2);
  Alcotest.(check bool) "kind analysis" true (field doc "kind" = J.Str "analysis");
  Alcotest.(check bool) "exit_code 0" true (field doc "exit_code" = J.Int 0);
  (match field doc "trace_id" with
   | J.Str id -> Alcotest.(check bool) "trace id non-empty" true (String.length id > 0)
   | _ -> Alcotest.fail "trace_id must be a string");
  (match field doc "net_hash" with
   | J.Str h -> Alcotest.(check int) "net hash is an MD5 hex digest" 32 (String.length h)
   | _ -> Alcotest.fail "net_hash must be a string");
  Alcotest.(check bool) "states" true (field doc "states" = J.Int 18);
  (* the rendered envelope round-trips through the Jsonv parser *)
  Alcotest.(check bool) "envelope round-trips" true
    (J.of_string (J.to_string doc) = Ok doc)

(* The builtin half of the cross-surface differential: for every concrete
   builtin, [POST /analyze] answers the bytes [tpan analyze -m M -t T
   --json] prints, trace id masked. *)
let test_analyze_matches_cli () =
  List.iter
    (fun (m : Tpan.Models.t) ->
      if Tpan_core.Tpn.is_concrete (m.Tpan.Models.make []) then begin
        let name = m.Tpan.Models.name and t = List.hd m.Tpan.Models.deliveries in
        let r =
          handle "POST" "/analyze"
            (Printf.sprintf {|{"model":"%s","throughputs":["%s"]}|} name t)
        in
        Alcotest.(check int) (name ^ ": status") 200 r.Serve.status;
        let rc, out = Test_cli.run_capture (Printf.sprintf "analyze -m %s -t %s --json" name t) in
        Alcotest.(check int) (name ^ ": cli exit code") 0 rc;
        Alcotest.(check string) name (Test_cli.mask_trace_id out)
          (Test_cli.mask_trace_id r.Serve.body)
      end)
    Tpan.Models.all

let test_eval_exactly_once () =
  Tpan.Artifact.reset_caches ();
  let before = Tpan_obs.Metrics.counter_value "cache.symbolic.misses" in
  let value = ref "" in
  for i = 1 to 1000 do
    let r = handle "POST" "/eval" eval_body in
    if r.Serve.status <> 200 then
      Alcotest.failf "request %d: status %d: %s" i r.Serve.status r.Serve.body;
    match field (parse_body r) "throughput" with
    | J.Str v ->
      if i = 1 then value := v
      else if v <> !value then Alcotest.failf "request %d: drifting value %s" i v
    | _ -> Alcotest.fail "throughput must be a rational string"
  done;
  Alcotest.(check string) "the paper's exact closed-form value" "1805/486672" !value;
  let after = Tpan_obs.Metrics.counter_value "cache.symbolic.misses" in
  Alcotest.(check int) "1000 /eval requests, exactly one symbolic build" 1
    (after - before)

let test_inline_net_shares_cache () =
  (* posting the builtin's source inline lands on the same canonical
     hash, so the two spellings share cache entries *)
  let r1 = handle "POST" "/analyze" {|{"model":"stopwait"}|} in
  let src =
    match Tpan.Analysis.load (Tpan.Analysis.Builtin "stopwait") with
    | Ok tpn -> Tpan_dsl.Printer.to_string tpn
    | Error e -> Alcotest.failf "load: %s" (Tpan.Error.to_string e)
  in
  let body = J.to_string (J.Obj [ ("net", J.Str src) ]) in
  let r2 = handle "POST" "/analyze" body in
  Alcotest.(check int) "inline net accepted" 200 r2.Serve.status;
  Alcotest.(check bool) "same net hash for model and inline source" true
    (field (parse_body r1) "net_hash" = field (parse_body r2) "net_hash")

let test_deadline_504 () =
  Tpan.Artifact.reset_caches ();
  let config = { Serve.default_config with Serve.deadline = Some 1e-9 } in
  let r =
    Serve.handle config ~meth:"POST" ~target:"/analyze" ~body:{|{"model":"stopwait"}|}
  in
  Alcotest.(check int) "expired budget answers 504" 504 r.Serve.status;
  let doc = parse_body r in
  Alcotest.(check bool) "exit-code 6 semantics in the envelope" true
    (field doc "exit_code" = J.Int 6);
  (* the aborted build poisoned nothing: a sane config succeeds *)
  Tpan.Artifact.reset_caches ();
  let r2 = handle "POST" "/analyze" {|{"model":"stopwait"}|} in
  Alcotest.(check int) "same net analyzes fine afterwards" 200 r2.Serve.status

let sweep_body steps =
  Printf.sprintf
    {|{"model":"stopwait-sym","transitions":["t7"],
       "axes":["E(t3)=250..1000:%d"],
       "bindings":{"F(t1)":"1","F(t2)":"1","F(t3)":"1",
         "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
         "F(t8)":"106.7","F(t9)":"106.7",
         "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}
    steps

let test_sweep_endpoint () =
  let r = handle "POST" "/sweep" (sweep_body 4) in
  Alcotest.(check int) "sweep 200" 200 r.Serve.status;
  let doc = parse_body r in
  (match field doc "rows" with
   | J.List rows -> Alcotest.(check int) "4 grid rows" 4 (List.length rows)
   | _ -> Alcotest.fail "rows must be a list");
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "first grid point carries the exact value" true
    (contains r.Serve.body "1805/486672")

(* The deadline covers the grid, not just the closed form behind it: a
   grid at the point cap over a cached form runs far past this
   deadline, and must abort as a whole, not answer 200 late (or fill
   its rows with per-point deadline errors). *)
let test_sweep_deadline_504 () =
  Alcotest.(check int) "closed form primed" 200
    (handle "POST" "/sweep" (sweep_body 1)).Serve.status;
  let config = { Serve.default_config with Serve.deadline = Some 0.01 } in
  let r = handle ~config "POST" "/sweep" (sweep_body 10_000) in
  Alcotest.(check int) "10,000-point sweep past its deadline answers 504" 504
    r.Serve.status;
  Alcotest.(check bool) "exit-code 6 semantics in the envelope" true
    (field (parse_body r) "exit_code" = J.Int 6)

(* A sweep's [jobs] is the client's wish, capped at what [-j 0] would
   use: every lane past the first is a domain spawned for this one
   request. Each spawned lane records one [par.pool.worker_minor_words]
   observation. *)
let test_sweep_jobs_capped () =
  let body jobs =
    Printf.sprintf
      {|{"model":"stopwait-sym","transitions":["t7"],"jobs":%d,
         "axes":["E(t3)=250..1000:64"],
         "bindings":{"F(t1)":"1","F(t2)":"1","F(t3)":"1",
           "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
           "F(t8)":"106.7","F(t9)":"106.7",
           "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}
      jobs
  in
  let lanes = Tpan_obs.Metrics.histogram "par.pool.worker_minor_words" in
  let sweep jobs =
    let before = Tpan_obs.Metrics.Histogram.count lanes in
    let r = handle "POST" "/sweep" (body jobs) in
    Alcotest.(check int) (Printf.sprintf "jobs %d answers 200" jobs) 200 r.Serve.status;
    let payload =
      String.split_on_char '\n' r.Serve.body
      |> List.filter (fun l -> not (String.starts_with ~prefix:{|  "trace_id": |} l))
      |> String.concat "\n"
    in
    (payload, Tpan_obs.Metrics.Histogram.count lanes - before)
  in
  let narrow, _ = sweep 1 in
  let wide, spawned = sweep 64 in
  Alcotest.(check bool)
    (Printf.sprintf "jobs 64 spawned %d lanes, at most recommended_jobs () - 1" spawned)
    true
    (spawned <= Tpan_par.Pool.recommended_jobs () - 1);
  Alcotest.(check string) "same payload as jobs 1, trace id aside" narrow wide

(* ----- telemetry plane ----- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A grid's point count is known before any point is generated, so an
   oversized grid is turned away at once, however large its product. *)
let test_sweep_grid_cap () =
  let rejects what body =
    let r = handle "POST" "/sweep" body in
    Alcotest.(check int) (what ^ " answers 400") 400 r.Serve.status;
    Alcotest.(check bool) (what ^ ": the message names the limit") true
      (contains r.Serve.body "10000 points")
  in
  rejects "a 10,001-point grid" (sweep_body 10_001);
  (* F(t1) is the second axis here, so it leaves the bindings *)
  rejects "a 2^32 x 2^32 grid"
    {|{"model":"stopwait-sym","transitions":["t7"],
       "axes":["E(t3)=250..1000:4294967296","F(t1)=1..2:4294967296"],
       "bindings":{"F(t2)":"1","F(t3)":"1",
         "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
         "F(t8)":"106.7","F(t9)":"106.7",
         "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}

let tmp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpan_serve_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let statusz_totals () =
  let reqs = field (parse_body (handle "GET" "/statusz" "")) "requests" in
  let int k = match J.to_int_opt (field reqs k) with Some n -> n | None -> -1 in
  (int "total", int "errors", int "timeouts")

let test_statusz () =
  let r = handle "GET" "/statusz" "" in
  Alcotest.(check int) "statusz 200" 200 r.Serve.status;
  let doc = parse_body r in
  Alcotest.(check bool) "schema 1" true (field doc "schema" = J.Int 1);
  Alcotest.(check bool) "service name" true (field doc "service" = J.Str "tpan-serve");
  (match field doc "version" with
  | J.Str v -> Alcotest.(check bool) "version non-empty" true (String.length v > 0)
  | _ -> Alcotest.fail "version must be a string");
  (match J.to_float_opt (field doc "uptime_s") with
  | Some u -> Alcotest.(check bool) "uptime non-negative" true (u >= 0.)
  | None -> Alcotest.fail "uptime_s must be a number");
  (match field doc "requests" with
  | J.Obj _ as reqs ->
    (match J.to_int_opt (field reqs "total") with
    | Some n -> Alcotest.(check bool) "total counts this request" true (n >= 1)
    | None -> Alcotest.fail "requests.total must be an int");
    (* the statusz request observes itself in flight *)
    Alcotest.(check bool) "statusz sees itself in flight" true
      (field reqs "inflight" = J.Int 1)
  | _ -> Alcotest.fail "requests must be an object");
  (match field doc "inflight" with
  | J.List [ self ] ->
    Alcotest.(check bool) "in-flight entry names the request" true
      (J.member "request" self = Some (J.Str "GET /statusz"));
    Alcotest.(check bool) "in-flight entry has a trace id" true
      (match J.member "trace_id" self with Some (J.Str t) -> t <> "" | _ -> false);
    Alcotest.(check bool) "in-flight entry has an age" true
      (match Option.bind (J.member "age_s" self) J.to_float_opt with
      | Some a -> a >= 0.
      | None -> false)
  | _ -> Alcotest.fail "exactly the statusz request should be in flight");
  (* /eval ran in earlier tests, so the artifact caches are live *)
  (match field doc "caches" with
  | J.List caches ->
    Alcotest.(check bool) "cache stats per artifact kind" true
      (List.exists (fun c -> J.member "kind" c = Some (J.Str "symbolic")) caches)
  | _ -> Alcotest.fail "caches must be a list");
  (match field doc "gc" with
  | J.Obj _ as gc ->
    Alcotest.(check bool) "gc heap words" true
      (match J.to_int_opt (field gc "heap_words") with Some n -> n > 0 | None -> false)
  | _ -> Alcotest.fail "gc must be an object");
  let r_html = handle "GET" "/statusz?format=html" "" in
  Alcotest.(check int) "statusz html 200" 200 r_html.Serve.status;
  Alcotest.(check bool) "html content type" true
    (contains r_html.Serve.content_type "text/html");
  Alcotest.(check bool) "html body" true (contains r_html.Serve.body "<table>")

let test_tracez_and_red_metrics () =
  let r = handle "POST" "/eval" eval_body in
  Alcotest.(check int) "eval 200" 200 r.Serve.status;
  let doc = parse_body (handle "GET" "/tracez" "") in
  (match field doc "methods" with
  | J.List methods ->
    let eval_m =
      List.find_opt (fun m -> J.member "name" m = Some (J.Str "POST /eval")) methods
    in
    (match eval_m with
    | None -> Alcotest.fail "tracez lacks POST /eval"
    | Some m -> (
      match field m "buckets" with
      | J.List buckets ->
        let seen =
          List.fold_left
            (fun acc b ->
              acc + match J.to_int_opt (field b "seen") with Some n -> n | None -> 0)
            0 buckets
        in
        Alcotest.(check bool) "tracez saw the eval requests" true (seen >= 1);
        (* retained entries carry resolvable trace ids *)
        let entries =
          List.concat_map
            (fun b ->
              match J.member "entries" b with Some (J.List es) -> es | _ -> [])
            buckets
        in
        Alcotest.(check bool) "entries retained" true (entries <> []);
        List.iter
          (fun e ->
            match J.member "trace_id" e with
            | Some (J.Str id) ->
              Alcotest.(check bool) "trace id non-empty" true (String.length id > 0)
            | _ -> Alcotest.fail "tracez entry lacks trace_id")
          entries
      | _ -> Alcotest.fail "buckets must be a list"))
  | _ -> Alcotest.fail "methods must be a list");
  (* the RED families carry the endpoint label *)
  let om = (handle "GET" "/metrics" "").Serve.body in
  Alcotest.(check bool) "labelled request counter" true
    (contains om "tpan_serve_endpoint_requests_total{endpoint=\"/eval\"}");
  Alcotest.(check bool) "duration histogram buckets" true
    (contains om "tpan_serve_request_duration_s_bucket{endpoint=\"/eval\",le=");
  (* the unlabelled process-wide families are gone *)
  List.iter
    (fun family ->
      Alcotest.(check bool) ("legacy family absent: " ^ family) false (contains om family))
    [ "tpan_serve_requests_total"; "tpan_serve_errors_total";
      "tpan_serve_timeouts_total"; "tpan_serve_latency_s" ];
  let before = statusz_totals () in
  let r404 = handle "GET" "/definitely-not-a-route" "" in
  Alcotest.(check int) "404 for the error family" 404 r404.Serve.status;
  let om = (handle "GET" "/metrics" "").Serve.body in
  Alcotest.(check bool) "typed error counter, bounded endpoint label" true
    (contains om "tpan_serve_endpoint_errors_total{endpoint=\"other\",type=\"http\"}");
  (* /statusz totals are sums over the labelled series: the 404, the
     scrape and the second statusz request count, the 404 as an error *)
  let t0, e0, o0 = before and t1, e1, o1 = statusz_totals () in
  Alcotest.(check int) "statusz total counts every request" 3 (t1 - t0);
  Alcotest.(check int) "statusz errors count the 404" 1 (e1 - e0);
  Alcotest.(check int) "statusz timeouts unchanged" 0 (o1 - o0)

(* JSON numbers beyond the int range decode to their exact value, not
   to 0: [1e19] means the same point as ["10000000000000000000"]. *)
let test_large_json_numbers () =
  let eval_at e_t3 =
    let body =
      Printf.sprintf
        {|{"model":"stopwait-sym","transition":"t7","point":{
          "E(t3)":%s,"F(t1)":"1","F(t2)":"1","F(t3)":"1",
          "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
          "F(t8)":"106.7","F(t9)":"106.7",
          "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}
        e_t3
    in
    let r = handle "POST" "/eval" body in
    Alcotest.(check int) (e_t3 ^ " answers 200") 200 r.Serve.status;
    field (parse_body r) "throughput"
  in
  let exact = eval_at {|"10000000000000000000"|} in
  Alcotest.(check bool) "not the E(t3)=0 answer" true (exact <> eval_at "0");
  Alcotest.(check bool) "1e19 is exact" true (eval_at "1e19" = exact);
  Alcotest.(check bool) "a bare 20-digit literal is exact" true
    (eval_at "10000000000000000000" = exact);
  Alcotest.(check bool) "1e22 is exact" true
    (eval_at "1e22" = eval_at (Printf.sprintf "%S" ("1" ^ String.make 22 '0')));
  Alcotest.(check bool) "1e300 is not read as 0" true (eval_at "1e300" <> eval_at "0")

(* A point that binds one name twice used to be answered from its first
   binding while both orders shared one memo key, so the answer depended
   on which order the cache saw first: 1805/486672 warm, 1805/632922
   cold. Any repeated name is now a 400, in all three binding fields. *)
let test_repeated_binding_rejected () =
  let rest =
    {|"F(t1)":"1","F(t2)":"1","F(t3)":"1",
      "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
      "F(t8)":"106.7","F(t9)":"106.7",
      "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"|}
  in
  let status target body = (handle "POST" target body).Serve.status in
  let eval first second =
    status "/eval"
      (Printf.sprintf {|{"model":"stopwait-sym","transition":"t7","point":{"E(t3)":%s,"E(t3)":%s,%s}}|}
         first second rest)
  in
  Tpan.Artifact.reset_caches ();
  Alcotest.(check int) "250 then 1000" 400 (eval "250" "1000");
  Alcotest.(check int) "1000 then 250" 400 (eval "1000" "250");
  Alcotest.(check int) "same value twice" 400 (eval "250" "250");
  Alcotest.(check int) "sweep bindings" 400
    (status "/sweep"
       (Printf.sprintf
          {|{"model":"stopwait-sym","transitions":["t7"],"axes":["E(t3)=250..1000:2"],"bindings":{"F(t1)":"2",%s}}|}
          rest));
  Alcotest.(check int) "builtin params" 400
    (status "/analyze" {|{"model":"stopwait","params":{"timeout":"250","timeout":"1000"}}|});
  let once e_t3 =
    status "/eval"
      (Printf.sprintf {|{"model":"stopwait-sym","transition":"t7","point":{"E(t3)":%s,%s}}|} e_t3
         rest)
  in
  Alcotest.(check int) "distinct names still evaluate" 200 (once {|"250"|});
  Alcotest.(check int) "a sign after the decimal point" 400 (once {|"250.-5"|})

(* The stop-and-wait point of the paper, without E(t3): a sweep's or a
   point's remaining symbols. *)
let paper_bindings =
  {|"F(t1)":"1","F(t2)":"1","F(t3)":"1",
    "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
    "F(t8)":"106.7","F(t9)":"106.7",
    "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"|}

let error_of r =
  match field (parse_body r) "error" with J.Str msg -> msg | _ -> Alcotest.fail "error must be a string"

(* A name the net does not know used to be ignored: the point or the
   grid was answered as if at another point (the default timeout of
   1000, on every row). Every such name is now a 400 naming it. *)
let test_unknown_names_rejected () =
  let rejects what target body needles =
    let r = handle "POST" target body in
    Alcotest.(check int) (what ^ " answers 400") 400 r.Serve.status;
    Alcotest.(check bool) (what ^ ": exit code 2") true (field (parse_body r) "exit_code" = J.Int 2);
    List.iter
      (fun needle ->
        Alcotest.(check bool) (Printf.sprintf "%s: the message names %S" what needle) true
          (contains (error_of r) needle))
      needles
  in
  rejects "a parameter as a point variable" "/eval"
    {|{"model":"stopwait","transition":"t7","point":{"timeout":"250"}}|}
    [ {|"timeout"|}; "params" ];
  rejects "an extra point variable" "/eval"
    (Printf.sprintf {|{"model":"stopwait-sym","transition":"t7","point":{"E(t3)":"250",%s,"bogus":"3"}}|}
       paper_bindings)
    [ {|"bogus"|}; "E(t3)" ];
  rejects "an axis naming no symbol" "/sweep"
    (Printf.sprintf
       {|{"model":"stopwait-sym","transitions":["t7"],"axes":["nosuchvar=1..2:2"],"bindings":{%s}}|}
       paper_bindings)
    [ {|"nosuchvar"|} ];
  rejects "an axis naming no parameter" "/sweep"
    {|{"model":"stopwait","transitions":["t7"],"axes":["nosuchvar=1..2:2"]}|}
    [ {|"nosuchvar"|}; "timeout" ];
  rejects "a binding on a model with parameters" "/sweep"
    {|{"model":"stopwait","axes":["timeout=250..1000:2"],"bindings":{"F(t1)":"1"}}|}
    [ {|"F(t1)"|}; "axes" ]

(* [/sweep] on a builtin with parameters rebuilds the net at every grid
   point, as [tpan sweep] does: it used to answer the default timeout's
   1805/632922 on every row. *)
let test_concrete_sweep_varies () =
  let r =
    handle "POST" "/sweep" {|{"model":"stopwait","transitions":["t7"],"axes":["timeout=250..1000:3"]}|}
  in
  Alcotest.(check int) "200" 200 r.Serve.status;
  let column name =
    match field (parse_body r) "rows" with
    | J.List rows -> List.map (fun row -> J.member name (field row "values")) rows
    | _ -> Alcotest.fail "rows must be a list"
  in
  Alcotest.(check bool) "thr(t7) at timeouts 250, 625, 1000" true
    (column "thr(t7)"
    = List.map (fun v -> Some (J.Str v)) [ "1805/486672"; "95/29463"; "1805/632922" ]);
  Alcotest.(check bool) "a mean_cycle_time column" true
    (List.for_all Option.is_some (column "mean_cycle_time"))

(* [/eval] and a sweep row report one error for one point: the row used
   to read "rate equations unsolvable: division by zero …" where [/eval]
   said the denominator vanishes. *)
let test_vanishing_denominator_one_error () =
  let bindings =
    {|"F(t1)":"1","F(t2)":"1","F(t3)":"1",
      "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
      "F(t8)":"106.7","F(t9)":"106.7",
      "f(t4)":"0","f(t5)":"0","f(t8)":"0.95","f(t9)":"0.05"|}
  in
  let eval =
    handle "POST" "/eval"
      (Printf.sprintf {|{"model":"stopwait-sym","transition":"t7","point":{"E(t3)":"250",%s}}|} bindings)
  in
  let sweep =
    handle "POST" "/sweep"
      (Printf.sprintf
         {|{"model":"stopwait-sym","transitions":["t7"],"axes":["E(t3)=250..250:1"],"bindings":{%s}}|}
         bindings)
  in
  Alcotest.(check string) "/eval" "the throughput denominator vanishes at this point" (error_of eval);
  match field (parse_body sweep) "rows" with
  | J.List [ row ] ->
    Alcotest.(check bool) "the sweep row says the same" true
      (field row "error" = J.Str (error_of eval))
  | _ -> Alcotest.fail "one row expected"

(* A grid that leaves a variable of the closed form unbound fails once,
   before any point, with [/eval]'s message: it used to answer 200 with
   "unknown variable in sweep point" on every row. *)
let test_unbound_sweep_fails_once () =
  let r =
    handle "POST" "/sweep" {|{"model":"stopwait-sym","transitions":["t7"],"axes":["E(t3)=250..1000:2"]}|}
  in
  Alcotest.(check int) "400" 400 r.Serve.status;
  Alcotest.(check bool) "names the missing bindings" true
    (String.starts_with ~prefix:"point misses variable bindings: F(t1), F(t2)" (error_of r))

(* The request's ledger row is its one persisted record: its [request]
   object carries what the access log did (method, path, status, sizes,
   net hash, deadline budget), beside the row's trace id, endpoint, exit
   code and duration. *)
let test_access_log_slow_dump_ledger () =
  let dir = tmp_dir () in
  let flight = Filename.concat dir "flight.ndjson" in
  let config =
    {
      Serve.default_config with
      slow_ms = Some 0.0 (* every request is "slow": deterministic capture *);
      flight_path = Some flight;
      ledger_dir = Some dir;
    }
  in
  let r = Serve.handle config ~meth:"POST" ~target:"/eval" ~body:eval_body in
  Alcotest.(check int) "eval 200" 200 r.Serve.status;
  let doc = parse_body r in
  let tid = match field doc "trace_id" with J.Str t -> t | _ -> Alcotest.fail "trace_id" in
  let net_hash =
    match field doc "net_hash" with J.Str h -> h | _ -> Alcotest.fail "net_hash"
  in
  (* the slow request left a flight-recorder frame scoped to its trace *)
  (match Tpan_obs.Dump.load flight with
  | Ok (_ :: _ as frames) ->
    Alcotest.(check bool) "dump frame carries the trace id" true
      (List.exists (fun f -> f.Tpan_obs.Dump.trace_id = Some tid) frames)
  | Ok [] -> Alcotest.fail "no flight frames captured"
  | Error e -> Alcotest.failf "flight load: %s" e);
  Alcotest.(check bool) "no access log beside the ledger" false
    (Sys.file_exists (Filename.concat dir "access.ndjson"));
  (* one ledger row per request, grouped under serve:<endpoint> *)
  (match Tpan_obs.Ledger.load ~dir () with
  | Ok rows ->
    let serve_rows =
      List.filter (fun r -> r.Tpan_obs.Ledger.subcommand = "serve:/eval") rows
    in
    Alcotest.(check int) "one serve row" 1 (List.length serve_rows);
    let row = List.hd serve_rows in
    Alcotest.(check bool) "ledger trace id" true
      (row.Tpan_obs.Ledger.trace_id = Some tid);
    Alcotest.(check bool) "ledger exit code" true (row.Tpan_obs.Ledger.exit_code = 0);
    Alcotest.(check bool) "ledger duration" true (row.Tpan_obs.Ledger.duration >= 0.);
    let request =
      match row.Tpan_obs.Ledger.request with
      | Some r -> r
      | None -> Alcotest.fail "the serve row carries no request object"
    in
    Alcotest.(check bool) "request method" true (field request "method" = J.Str "POST");
    Alcotest.(check bool) "request path" true (field request "path" = J.Str "/eval");
    Alcotest.(check bool) "request status" true (field request "status" = J.Int 200);
    Alcotest.(check bool) "request net_hash" true (field request "net_hash" = J.Str net_hash);
    Alcotest.(check bool) "request body bytes" true
      (field request "body_bytes" = J.Int (String.length eval_body));
    Alcotest.(check bool) "request response bytes" true
      (field request "resp_bytes" = J.Int (String.length r.Serve.body));
    Alcotest.(check bool) "no deadline budget" true
      (field request "deadline_budget_s" = J.Null);
    (* runs --stats groups these by endpoint *)
    let stats = Tpan_obs.Ledger.stats rows in
    Alcotest.(check bool) "stats has serve:/eval" true
      (List.exists (fun (s : Tpan_obs.Ledger.stats_row) -> s.key = "serve:/eval")
         stats.Tpan_obs.Ledger.commands)
  | Error e -> Alcotest.failf "ledger load: %s" e)

(* 4 worker lanes hammer /eval while another lane scrapes /metrics and
   /statusz: scrapes stay parseable (no torn lines), labels stable, and
   after the run every exemplar on the /eval duration buckets resolves
   to a trace id recorded in the run ledger. *)
let test_concurrent_scrapes () =
  let dir = tmp_dir () in
  let config = { Serve.default_config with Serve.ledger_dir = Some dir } in
  Tpan_obs.Metrics.Histogram.reset
    (Tpan_obs.Metrics.histogram_with "serve.request_duration_s"
       [ ("endpoint", "/eval") ]);
  let scrape_ok = ref true in
  let work = function
    | `Eval ->
      for _ = 1 to 25 do
        let r = Serve.handle config ~meth:"POST" ~target:"/eval" ~body:eval_body in
        if r.Serve.status <> 200 then failwith ("eval status " ^ string_of_int r.Serve.status)
      done
    | `Scrape ->
      for _ = 1 to 25 do
        let m = Serve.handle config ~meth:"GET" ~target:"/metrics" ~body:"" in
        let lines = String.split_on_char '\n' m.Serve.body in
        if
          not
            (List.for_all
               (fun l ->
                 l = "" || l = "# EOF"
                 || String.length l > 2
                    && (contains l " " || String.sub l 0 2 = "# "))
               lines
            && List.mem "# EOF" lines)
        then scrape_ok := false;
        let s = Serve.handle config ~meth:"GET" ~target:"/statusz" ~body:"" in
        (match J.of_string s.Serve.body with
        | Ok _ -> ()
        | Error _ -> scrape_ok := false);
        let t = Serve.handle config ~meth:"GET" ~target:"/tracez" ~body:"" in
        (match J.of_string t.Serve.body with
        | Ok _ -> ()
        | Error _ -> scrape_ok := false)
      done
  in
  let results =
    Tpan_par.Pool.try_map ~jobs:5 work [ `Eval; `Eval; `Eval; `Eval; `Scrape ]
  in
  List.iter
    (function
      | Ok () -> ()
      | Error (e : Tpan_par.Pool.error) -> Alcotest.failf "lane failed: %s" e.message)
    results;
  Alcotest.(check bool) "all scrapes parsed cleanly" true !scrape_ok;
  (* exemplars resolve to real requests in the run ledger *)
  let log =
    let ic = open_in (Tpan_obs.Ledger.runs_file dir) in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let om = (Serve.handle config ~meth:"GET" ~target:"/metrics" ~body:"").Serve.body in
  let exemplar_tids =
    List.filter_map
      (fun l ->
        if
          contains l "tpan_serve_request_duration_s_bucket{endpoint=\"/eval\""
          && contains l "# {trace_id=\""
        then begin
          let marker = "# {trace_id=\"" in
          let rec find i =
            if i + String.length marker > String.length l then None
            else if String.sub l i (String.length marker) = marker then Some i
            else find (i + 1)
          in
          match find 0 with
          | None -> None
          | Some i -> (
            let start = i + String.length marker in
            match String.index_from_opt l start '"' with
            | Some j -> Some (String.sub l start (j - start))
            | None -> None)
        end
        else None)
      (String.split_on_char '\n' om)
  in
  Alcotest.(check bool) "at least one exemplar on the /eval buckets" true
    (exemplar_tids <> []);
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "exemplar %s resolves to a ledger row" tid)
        true
        (contains log (Printf.sprintf "\"trace_id\":\"%s\"" tid)))
    exemplar_tids

(* A recurrent cycle that takes no time has no throughput: 422 with exit
   code 4 and one message, not a 500 from a division by zero. *)
let test_zero_time_cycle_422 () =
  let r =
    handle "POST" "/analyze"
      (J.to_string
         (J.Obj [ ("net", J.Str Test_cli.zero_cycle_tpn); ("throughputs", J.List [ J.Str "x" ]) ]))
  in
  Alcotest.(check int) "422" 422 r.Serve.status;
  let doc = parse_body r in
  Alcotest.(check bool) "exit code 4" true (field doc "exit_code" = J.Int 4);
  Alcotest.(check bool) "says the cycle takes no time" true
    (match field doc "error" with
     | J.Str e -> String.starts_with ~prefix:Test_cli.zero_cycle_msg e
     | _ -> false)

(* Five independent two-transition loops: a 153,552-state concrete TRG,
   about 2 s to build cold. *)
let five_loops =
  let loop i =
    Printf.sprintf
      "place a%d init 1\nplace b%d\ntrans x%d { in a%d; out b%d; fire %d }\n\
       trans y%d { in b%d; out a%d; fire %d }\n"
      i i i i i (3 + (2 * i)) i i i (5 + (3 * i))
  in
  "net loops\n" ^ String.concat "" (List.init 5 loop)

let interned () = Tpan_obs.Metrics.counter_value "core.semantics.states_interned"

let five_loops_body =
  J.to_string
    (J.Obj
       [
         ("net", J.Str five_loops);
         ("throughputs", J.List [ J.Str "x0" ]);
         ("max_states", J.Int 200_000);
       ])

(* Runs [f] on this domain while a cold /analyze of [five_loops] builds
   on another, once the build has interned 1000 states; [prime] runs
   first, on empty caches. Returns [f]'s result and how long it took,
   whether the build was still running when [f] returned, the build's
   response and wall time, and the states interned by then and in all. *)
type 'a during = {
  result : 'a;
  f_s : float;
  mid_build : bool;
  analysis : Serve.response;
  build_s : float;
  interned_then : int;
  interned_total : int;
}

let during_cold_build ?(prime = ignore) f =
  Tpan.Artifact.reset_caches ();
  prime ();
  let before = interned () in
  let finished = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let analyze =
    Domain.spawn (fun () ->
        let r = handle "POST" "/analyze" five_loops_body in
        Atomic.set finished true;
        r)
  in
  let rec under_way () =
    if interned () - before >= 1000 then true
    else if Unix.gettimeofday () -. t0 > 30. then false
    else (
      Unix.sleepf 0.001;
      under_way ())
  in
  Alcotest.(check bool) "the build got under way" true (under_way ());
  let s0 = Unix.gettimeofday () in
  let result = f () in
  let f_s = Unix.gettimeofday () -. s0 in
  let mid_build = not (Atomic.get finished) in
  let interned_then = interned () - before in
  let analysis = Domain.join analyze in
  let build_s = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "analyze 200" 200 analysis.Serve.status;
  { result; f_s; mid_build; analysis; build_s; interned_then;
    interned_total = interned () - before }

(* /statusz reads the caches' atomic counters, so it answers while a
   cold build runs instead of waiting the build out. *)
let test_statusz_during_build () =
  let d = during_cold_build (fun () -> handle "GET" "/statusz" "") in
  Alcotest.(check int) "statusz 200" 200 d.result.Serve.status;
  Alcotest.(check bool)
    (Printf.sprintf "statusz answered mid-build (%d of %d states interned)" d.interned_then
       d.interned_total)
    true
    (d.interned_then < d.interned_total);
  Alcotest.(check bool)
    (Printf.sprintf "statusz took %.3f s of a %.3f s build" d.f_s d.build_s)
    true
    (d.f_s < d.build_s /. 4.)

(* A cold build holds no lock while it runs, so a warm /analyze of a
   primed builtin answers from the same report cache at once. *)
let test_warm_analyze_during_build () =
  let warm () = handle "POST" "/analyze" {|{"model":"stopwait","throughputs":["t7"]}|} in
  let prime () = Alcotest.(check int) "primed" 200 (warm ()).Serve.status in
  let d = during_cold_build ~prime warm in
  Alcotest.(check int) "warm analyze 200" 200 d.result.Serve.status;
  Alcotest.(check bool) "answered mid-build" true d.mid_build;
  Alcotest.(check bool)
    (Printf.sprintf "the warm analyze took %.3f s of a %.3f s build" d.f_s d.build_s)
    true
    (d.f_s < d.build_s /. 4.)

(* A request for a net that another request is building waits on that
   key alone and keeps its own deadline: 504 / exit 6 before the build
   ends, and the net is built once. *)
let test_waiter_deadline_504 () =
  let config = { Serve.default_config with Serve.deadline = Some 0.1 } in
  let d = during_cold_build (fun () -> handle ~config "POST" "/analyze" five_loops_body) in
  Alcotest.(check int) "504" 504 d.result.Serve.status;
  Alcotest.(check bool) "exit code 6" true (field (parse_body d.result) "exit_code" = J.Int 6);
  Alcotest.(check bool) "answered before the build ended" true d.mid_build;
  let states =
    match field (parse_body d.analysis) "states" with
    | J.Int n -> n
    | _ -> Alcotest.fail "states must be an integer"
  in
  Alcotest.(check int) "one build's worth of states interned" states d.interned_total

(* A served request's spans are its own until it drains them: under the
   server's retention of 4096 spans, a 10,000-point /sweep still counts
   every point in its ledger row, alone and beside a second one. *)
let sweep_point_counts ~concurrent =
  let dir = tmp_dir () in
  let config = { Serve.default_config with Serve.ledger_dir = Some dir } in
  let body =
    {|{"model":"stopwait-sym","transitions":["t7"],"axes":["E(t3)=250..1000:10000"],
       "bindings":{"F(t1)":"1","F(t2)":"1","F(t3)":"1","F(t4)":"106.7","F(t5)":"106.7",
       "F(t6)":"13.5","F(t7)":"13.5","F(t8)":"106.7","F(t9)":"106.7","f(t4)":"0.05",
       "f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}
  in
  let sweep () =
    let r = handle ~config "POST" "/sweep" body in
    Alcotest.(check int) "sweep 200" 200 r.Serve.status;
    match field (parse_body r) "trace_id" with
    | J.Str tid -> tid
    | _ -> Alcotest.fail "trace_id must be a string"
  in
  let was_enabled = Tpan_obs.Trace.enabled () in
  Tpan_obs.Trace.set_enabled true;
  Tpan_obs.Trace.set_retention 4096;
  let tids =
    Fun.protect
      ~finally:(fun () ->
        Tpan_obs.Trace.set_enabled was_enabled;
        Tpan_obs.Trace.set_retention 0)
      (fun () -> List.map Domain.join (List.init concurrent (fun _ -> Domain.spawn sweep)))
  in
  let rows =
    match Tpan_obs.Ledger.load ~dir () with
    | Ok rows -> rows
    | Error e -> Alcotest.failf "ledger load: %s" e
  in
  List.map
    (fun tid ->
      match List.find_opt (fun r -> r.Tpan_obs.Ledger.trace_id = Some tid) rows with
      | None -> Alcotest.failf "no ledger row for %s" tid
      | Some row -> (
        match
          List.find_opt
            (fun (st : Tpan_obs.Ledger.stage) -> st.stage = "sweep.point")
            row.Tpan_obs.Ledger.stages
        with
        | Some st -> st.count
        | None -> 0))
    tids

let test_large_sweep_keeps_its_spans () =
  Alcotest.(check (list int)) "every point's span" [ 10_000 ]
    (sweep_point_counts ~concurrent:1)

let test_concurrent_sweeps_keep_their_spans () =
  Alcotest.(check (list int)) "every point's span, per request" [ 10_000; 10_000 ]
    (sweep_point_counts ~concurrent:2)

(* [Q.of_decimal_string] is quadratic in a literal's length and the
   request deadline fires only after the parse, so a literal over 1,000
   characters is refused before any digit is read: at the point, and in
   an inline net. *)
let test_long_literal_refused () =
  let eval_at e_t3 =
    handle "POST" "/eval"
      (Printf.sprintf {|{"model":"stopwait-sym","transition":"t7","point":{"E(t3)":"%s",%s}}|}
         e_t3 paper_bindings)
  in
  let at_bound = "250." ^ String.make 996 '0' in
  let r = eval_at at_bound in
  Alcotest.(check int) "1,000 characters still answer" 200 r.Serve.status;
  Alcotest.(check bool) "as E(t3) = 250 does" true
    (field (parse_body r) "throughput" = field (parse_body (eval_at "250")) "throughput");
  let refused what literal =
    let t0 = Unix.gettimeofday () in
    let r = eval_at literal in
    let dt = Unix.gettimeofday () -. t0 in
    Alcotest.(check int) (what ^ " answers 400") 400 r.Serve.status;
    Alcotest.(check bool) (what ^ ": names the field") true (contains (error_of r) "point.E(t3)");
    Alcotest.(check bool)
      (Printf.sprintf "%s: body under 1 KiB (%d bytes)" what (String.length r.Serve.body))
      true
      (String.length r.Serve.body < 1024);
    Alcotest.(check bool) (Printf.sprintf "%s: within 50 ms (%.1f ms)" what (dt *. 1e3)) true
      (dt < 0.05)
  in
  refused "1,001 characters" (at_bound ^ "0");
  (* 0.68 s to parse before the bound *)
  refused "2 x 30,000 digits" (String.make 30_000 '7' ^ "/" ^ String.make 30_000 '3');
  let net fire =
    let src = "net tiny\nplace p1 init 1\ntrans t1 { in p1; out p1; fire " ^ fire ^ " }\n" in
    J.to_string (J.Obj [ ("net", J.Str src) ])
  in
  Alcotest.(check int) "an inline net answers" 200
    (handle "POST" "/analyze" (net "2.5")).Serve.status;
  Alcotest.(check int) "the same literal in an inline net answers 400" 400
    (handle "POST" "/analyze" (net (at_bound ^ "0"))).Serve.status

(* A refusal quotes at most 64 bytes of a client string, so whatever the
   client sent, the error path answers a small body that still names the
   field. *)
let test_refusals_quote_boundedly () =
  let long = String.make 60_000 'x' in
  let quoted = J.to_string (J.Str long) in
  let sweep_axis axis =
    Printf.sprintf {|{"model":"stopwait-sym","transitions":["t7"],"axes":[%s],"bindings":{%s}}|} axis
      paper_bindings
  in
  let eval_point point = Printf.sprintf {|{"model":"stopwait-sym","transition":"t7","point":{%s}}|} point in
  let inline_net src = J.to_string (J.Obj [ ("net", J.Str src) ]) in
  List.iter
    (fun (what, target, body, status, names) ->
      let r = handle "POST" target body in
      Alcotest.(check int) (what ^ ": status") status r.Serve.status;
      Alcotest.(check bool)
        (Printf.sprintf "%s: body under 1 KiB (%d bytes)" what (String.length r.Serve.body))
        true
        (String.length r.Serve.body < 1024);
      Alcotest.(check bool) (what ^ ": names " ^ names) true (contains (error_of r) names);
      Alcotest.(check bool) (what ^ ": says how long") true (contains (error_of r) "(60000 bytes)"))
    [
      ("a 60,000-character axis string", "/sweep", sweep_axis quoted, 400, "bad grid spec");
      ( "a 60,000-character hi",
        "/sweep",
        sweep_axis (Printf.sprintf {|{"name":"E(t3)","lo":"250","hi":%s,"steps":2}|} quoted),
        400,
        "axes[].hi" );
      ( "a 60,000-character point name",
        "/eval",
        eval_point (Printf.sprintf {|%s:"1",%s|} quoted paper_bindings),
        400,
        "point" );
      ( "a point name bound twice",
        "/eval",
        eval_point (Printf.sprintf {|%s:"1",%s:"2"|} quoted quoted),
        400,
        "bound twice" );
      ( "a 60,000-character model name",
        "/eval",
        Printf.sprintf {|{"model":%s,"transition":"t7"}|} quoted,
        400,
        "unknown model" );
      ( "a 60,000-character transition name",
        "/eval",
        Printf.sprintf {|{"model":"stopwait-sym","transition":%s,"point":{%s}}|} quoted
          paper_bindings,
        400,
        "unknown transition" );
      ( "a 60,000-character parameter name",
        "/eval",
        Printf.sprintf {|{"model":"stopwait","transition":"t7","params":{%s:"1"}}|} quoted,
        400,
        "has no parameter" );
      ( "a 60,000-character place declared twice",
        "/analyze",
        inline_net
          (Printf.sprintf "net d\nplace %s init 1\nplace %s\ntrans t { in %s; out %s; fire 1 }\n"
             long long long long),
        400,
        "duplicate place" );
      ( "a 60,000-character transition declared twice",
        "/analyze",
        inline_net
          (Printf.sprintf
             "net d\nplace p init 1\ntrans %s { in p; out p; fire 1 }\ntrans %s { in p; out p; fire 1 }\n"
             long long),
        400,
        "duplicate transition" );
      ( "a 60,000-character sweep parameter",
        "/sweep",
        Printf.sprintf {|{"model":"stopwait","transitions":["t7"],"axes":[{"name":%s,"lo":"1","hi":"2","steps":2}]}|}
          quoted,
        400,
        "has no parameter" );
    ];
  (* a string of at most 64 bytes is quoted whole, as before *)
  let r = handle "POST" "/eval" (Printf.sprintf {|{"model":"%s","transition":"t7"}|} (String.make 64 'y')) in
  Alcotest.(check bool) "64 bytes quoted whole" true
    (contains (error_of r) (Printf.sprintf "unknown model %S (available" (String.make 64 'y')))

let suite =
  ( "serve",
    [
      Alcotest.test_case "routing and status codes" `Quick test_healthz_and_routing;
      Alcotest.test_case "schema-2 envelope" `Quick test_analyze_envelope;
      Alcotest.test_case "1000 evals, one symbolic build" `Quick test_eval_exactly_once;
      Alcotest.test_case "inline net shares the cache" `Quick test_inline_net_shares_cache;
      Alcotest.test_case "deadline answers 504 / exit 6" `Quick test_deadline_504;
      Alcotest.test_case "sweep endpoint" `Quick test_sweep_endpoint;
      Alcotest.test_case "sweep past its deadline answers 504" `Quick
        test_sweep_deadline_504;
      Alcotest.test_case "sweep grid above 10,000 points answers 400" `Quick
        test_sweep_grid_cap;
      Alcotest.test_case "statusz introspection" `Quick test_statusz;
      Alcotest.test_case "large JSON numbers decode exactly" `Quick test_large_json_numbers;
      Alcotest.test_case "repeated binding names answer 400" `Quick
        test_repeated_binding_rejected;
      Alcotest.test_case "tracez and RED metrics" `Quick test_tracez_and_red_metrics;
      Alcotest.test_case "access log, slow dump, ledger rows" `Quick
        test_access_log_slow_dump_ledger;
      Alcotest.test_case "concurrent scrapes under load" `Quick test_concurrent_scrapes;
      Alcotest.test_case "sweep jobs capped at recommended" `Quick test_sweep_jobs_capped;
      Alcotest.test_case "/analyze = analyze --json on every builtin" `Quick
        test_analyze_matches_cli;
      Alcotest.test_case "names the net lacks answer 400" `Quick test_unknown_names_rejected;
      Alcotest.test_case "a concrete builtin's sweep varies its parameters" `Quick
        test_concrete_sweep_varies;
      Alcotest.test_case "/eval and a sweep row share one error" `Quick
        test_vanishing_denominator_one_error;
      Alcotest.test_case "an unbound sweep fails once" `Quick test_unbound_sweep_fails_once;
      Alcotest.test_case "a zero-time cycle answers 422" `Quick test_zero_time_cycle_422;
      Alcotest.test_case "/statusz answers during a cold build" `Quick
        test_statusz_during_build;
      Alcotest.test_case "a warm /analyze answers during a cold build" `Quick
        test_warm_analyze_during_build;
      Alcotest.test_case "a waiter on a cold build keeps its deadline" `Quick
        test_waiter_deadline_504;
      Alcotest.test_case "a 10,000-point sweep keeps all its spans" `Quick
        test_large_sweep_keeps_its_spans;
      Alcotest.test_case "two large sweeps each keep their spans" `Quick
        test_concurrent_sweeps_keep_their_spans;
      Alcotest.test_case "a literal over 1,000 characters answers 400" `Quick
        test_long_literal_refused;
      Alcotest.test_case "a refusal quotes at most 64 bytes" `Quick
        test_refusals_quote_boundedly;
    ] )
