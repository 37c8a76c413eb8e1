(* Unit tests for the Tpan_obs observability layer: metrics registry,
   histogram percentiles, span nesting, disabled-mode no-ops and the
   NDJSON export/parse round-trip. *)

module Metrics = Tpan_obs.Metrics
module Trace = Tpan_obs.Trace
module Progress = Tpan_obs.Progress
module Log = Tpan_obs.Log
module J = Tpan_obs.Jsonv

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let test_counter_gauge () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.Counter.value c);
  Metrics.Counter.reset c;
  Alcotest.(check int) "counter resets" 0 (Metrics.Counter.value c);
  let g = Metrics.Gauge.create () in
  Metrics.Gauge.set g 3.5;
  Metrics.Gauge.set_max g 2.0;
  Alcotest.(check bool) "set_max keeps max" true (feq (Metrics.Gauge.value g) 3.5);
  Metrics.Gauge.set_max g 7.0;
  Alcotest.(check bool) "set_max raises" true (feq (Metrics.Gauge.value g) 7.0)

let test_histogram_percentiles () =
  let h = Metrics.Histogram.create () in
  (* 1..100 in scrambled order: percentile must sort, not trust arrival *)
  for i = 0 to 99 do
    Metrics.Histogram.observe h (float_of_int (((i * 37) mod 100) + 1))
  done;
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  Alcotest.(check bool) "sum" true (feq (Metrics.Histogram.sum h) 5050.0);
  Alcotest.(check bool) "max" true (feq (Metrics.Histogram.max_value h) 100.0);
  Alcotest.(check bool) "p50" true (feq (Metrics.Histogram.percentile h 0.5) 50.0);
  Alcotest.(check bool) "p90" true (feq (Metrics.Histogram.percentile h 0.9) 90.0);
  Alcotest.(check bool) "p99" true (feq (Metrics.Histogram.percentile h 0.99) 99.0);
  Alcotest.(check bool) "p100" true (feq (Metrics.Histogram.percentile h 1.0) 100.0);
  let empty = Metrics.Histogram.create () in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Metrics.Histogram.percentile empty 0.5))

let test_histogram_window_cap () =
  let h = Metrics.Histogram.create ~cap:8 () in
  for i = 1 to 100 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  (* count/sum/max are exact over the stream even though only 8 samples
     are retained for percentiles *)
  Alcotest.(check int) "count exact past cap" 100 (Metrics.Histogram.count h);
  Alcotest.(check bool) "sum exact past cap" true (feq (Metrics.Histogram.sum h) 5050.0);
  Alcotest.(check bool) "max exact past cap" true
    (feq (Metrics.Histogram.max_value h) 100.0);
  (* the retained window is the last 8 observations: 93..100 *)
  Alcotest.(check bool) "windowed p0 is recent" true
    (Metrics.Histogram.percentile h 0.0 >= 93.0)

let test_registry () =
  let c = Metrics.counter "test_obs.registry.c" in
  let c' = Metrics.counter "test_obs.registry.c" in
  Metrics.Counter.incr c;
  Alcotest.(check int) "find-or-create shares the store" 1 (Metrics.Counter.value c');
  Alcotest.(check int) "counter_value reads registry" 1
    (Metrics.counter_value "test_obs.registry.c");
  Alcotest.(check int) "counter_value absent -> 0" 0
    (Metrics.counter_value "test_obs.registry.nope");
  (match Metrics.find "test_obs.registry.c" with
  | Some (Metrics.Counter_v 1) -> ()
  | _ -> Alcotest.fail "find should see Counter_v 1");
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore (Metrics.gauge "test_obs.registry.c");
       false
     with Invalid_argument _ -> true);
  let names = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check bool) "snapshot sorted" true
    (List.sort compare names = names)

let test_disabled_mode () =
  Trace.set_enabled false;
  Trace.clear ();
  let r =
    Trace.with_span "off.outer" (fun sp ->
        Trace.add_attr sp "k" "v";
        Trace.with_span "off.inner" (fun _ -> 17))
  in
  Alcotest.(check int) "thunk result passes through" 17 r;
  Alcotest.(check int) "no events buffered" 0 (List.length (Trace.events ()));
  (* timing switch off: Metrics.time must still run the thunk *)
  Metrics.set_timing false;
  let h = Metrics.Histogram.create () in
  Alcotest.(check int) "time runs thunk when off" 5 (Metrics.time h (fun () -> 5));
  Alcotest.(check int) "no observation when off" 0 (Metrics.Histogram.count h)

let test_span_nesting () =
  Trace.set_enabled true;
  Trace.clear ();
  let r =
    Trace.with_span "outer" (fun sp ->
        Trace.add_attr sp "stage" "test";
        Trace.with_span "inner" (fun sp' ->
            Trace.add_attr_int sp' "n" 3;
            2) + 1)
  in
  Trace.set_enabled false;
  Alcotest.(check int) "result threads through" 3 r;
  let evs = Trace.events () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let inner = List.find (fun (e : Trace.event) -> e.name = "inner") evs in
  let outer = List.find (fun (e : Trace.event) -> e.name = "outer") evs in
  Alcotest.(check int) "outer is root" 0 outer.depth;
  Alcotest.(check int) "inner is nested" 1 inner.depth;
  Alcotest.(check bool) "child within parent" true
    (inner.start >= outer.start
    && inner.start +. inner.dur <= outer.start +. outer.dur +. 1e-6);
  Alcotest.(check (list (pair string string))) "attrs kept" [ ("n", "3") ] inner.attrs;
  Alcotest.(check bool) "total_duration sums" true
    (feq ~eps:1e-12 (Trace.total_duration "outer") outer.dur);
  Trace.clear ()

let test_ndjson_roundtrip () =
  Trace.set_enabled true;
  Trace.clear ();
  ignore
    (Trace.with_span "root \"quoted\"\nname" (fun sp ->
         Trace.add_attr sp "file" "a\\b.tpn";
         Trace.with_span "child" (fun sp' ->
             Trace.add_attr_int sp' "states" 18;
             ())));
  Trace.set_enabled false;
  let path = Filename.temp_file "tpan_obs" ".ndjson" in
  let oc = open_out path in
  Trace.write_ndjson oc;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let parsed = List.filter_map Trace.parse_line lines in
  Alcotest.(check int) "every line parses" 2 (List.length parsed);
  let originals = Trace.events () in
  List.iter
    (fun (e : Trace.event) ->
      let o =
        List.find (fun (o : Trace.event) -> o.name = e.name) originals
      in
      Alcotest.(check int) (e.name ^ ": depth survives") o.depth e.depth;
      Alcotest.(check (list (pair string string)))
        (e.name ^ ": attrs survive") o.attrs e.attrs;
      (* timestamps go through microsecond formatting: 1e-6 s precision *)
      Alcotest.(check bool) (e.name ^ ": start survives") true
        (feq ~eps:1e-5 o.start e.start);
      Alcotest.(check bool) (e.name ^ ": dur survives") true
        (feq ~eps:1e-5 o.dur e.dur))
    parsed;
  Alcotest.(check (option reject)) "garbage does not parse" None
    (Option.map ignore (Trace.parse_line "not json at all"));
  Trace.clear ()

let test_jsonv_escape () =
  (* every control character, the JSON specials and 8-bit bytes must
     escape into valid JSON and parse back to the original string *)
  let nasty = "a\"b\\c\nd\te\rf\x01g\x1fh\x7fi" in
  (match J.of_string (J.to_string (J.Str nasty)) with
   | Ok (J.Str s) -> Alcotest.(check string) "control chars round-trip" nasty s
   | _ -> Alcotest.fail "escaped string did not parse back");
  (* UTF-8 passes through untouched *)
  let utf8 = "caf\xc3\xa9 \xe2\x86\x92 ok" in
  (match J.of_string (J.to_string (J.Str utf8)) with
   | Ok (J.Str s) -> Alcotest.(check string) "utf-8 round-trips" utf8 s
   | _ -> Alcotest.fail "utf-8 string did not parse back");
  (* \u escapes decode to UTF-8, surrogate pairs included *)
  (match J.of_string "\"\\u00e9 \\u2192 \\ud83d\\ude00\"" with
   | Ok (J.Str s) ->
     Alcotest.(check string) "\\u and surrogate pair decode"
       "\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "\\u escapes did not parse")

let test_jsonv_parser () =
  (match J.of_string "{\"a\": [1, 2.5, true, null], \"b\": {\"c\": \"d\"}}" with
   | Ok doc ->
     (match Option.bind (J.member "a" doc) J.to_list_opt with
      | Some [ x; y; J.Bool true; J.Null ] ->
        Alcotest.(check (option int)) "int element" (Some 1) (J.to_int_opt x);
        Alcotest.(check (option (float 1e-9))) "float element" (Some 2.5) (J.to_float_opt y)
      | _ -> Alcotest.fail "array shape wrong");
     Alcotest.(check (option string)) "nested member" (Some "d")
       (Option.bind (Option.bind (J.member "b" doc) (J.member "c")) J.to_string_opt)
   | Error e -> Alcotest.fail e);
  (* numbers: integer syntax yields Int, fraction/exponent yield Float *)
  (match J.of_string "-42" with
   | Ok (J.Int (-42)) -> ()
   | _ -> Alcotest.fail "integer literal should parse as Int");
  (match J.of_string "1e3" with
   | Ok (J.Float f) -> Alcotest.(check (float 1e-9)) "exponent" 1000.0 f
   | _ -> Alcotest.fail "exponent literal should parse as Float");
  (* malformed inputs are errors, not crashes *)
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "\"unterminated"; "1 2"; "nul"; "{\"a\" 1}" ]

let test_jsonv_huge_floats () =
  (* Floats beyond the int range must stay floats: converting them with
     [int_of_float] is undefined behaviour, so [to_int_opt] must refuse. *)
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok (J.Float f as v) ->
        Alcotest.(check bool) (s ^ " finite") true (Float.is_finite f);
        Alcotest.(check (option int)) (s ^ " not an int") None (J.to_int_opt v);
        (* serialization round-trips through the parser *)
        (match J.of_string (J.to_string v) with
         | Ok (J.Float f') -> Alcotest.(check (float 0.)) (s ^ " round-trip") f f'
         | Ok _ | Error _ -> Alcotest.fail (s ^ " should round-trip as Float"))
      | Ok _ -> Alcotest.fail (s ^ " should parse as Float")
      | Error e -> Alcotest.fail e)
    [ "1e308"; "-1e308"; "9.3e18"; "-9.3e18" ];
  (* boundary behaviour: min_int is exactly representable and convertible,
     the first power of two past max_int is not *)
  Alcotest.(check (option int))
    "min_int representable" (Some min_int)
    (J.to_int_opt (J.Float (float_of_int min_int)));
  Alcotest.(check (option int))
    "2^62 rejected" None
    (J.to_int_opt (J.Float (-.float_of_int min_int)));
  Alcotest.(check (option int)) "2.5 rejected" None (J.to_int_opt (J.Float 2.5))

let om_name_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       s

(* a sample line's "series value" part: an (optionally labelled)
   series name followed by one float *)
let om_sample_ok s =
  match String.index_opt s ' ' with
  | None -> false
  | Some i ->
    let series = String.sub s 0 i in
    let value = String.sub s (i + 1) (String.length s - i - 1) in
    let name =
      match String.index_opt series '{' with
      | Some j -> if series.[String.length series - 1] = '}' then String.sub series 0 j else ""
      | None -> series
    in
    om_name_ok name && Option.is_some (float_of_string_opt value)

(* an exemplar: "{trace_id=\"...\"} value [timestamp]" *)
let om_exemplar_ok s =
  String.length s > 1
  && s.[0] = '{'
  && (match String.index_opt s '}' with
     | None -> false
     | Some j ->
       let rest = String.sub s (j + 1) (String.length s - j - 1) in
       let parts =
         String.split_on_char ' ' rest |> List.filter (fun x -> x <> "")
       in
       List.length parts >= 1 && List.length parts <= 2
       && List.for_all (fun v -> Option.is_some (float_of_string_opt v)) parts)

(* one line of OpenMetrics text exposition: a comment directive, a
   sample (optionally labelled, optionally with an exemplar after
   " # "), or the terminator *)
let om_line_ok line =
  line = "# EOF"
  || (match String.split_on_char ' ' line with
     | [ "#"; "TYPE"; name; kind ] ->
       om_name_ok name && List.mem kind [ "counter"; "gauge"; "histogram" ]
     | _ -> (
       let sample, exemplar =
         let rec find i =
           if i + 2 >= String.length line then None
           else if line.[i] = ' ' && line.[i + 1] = '#' && line.[i + 2] = ' ' then Some i
           else find (i + 1)
         in
         match find 0 with
         | Some i ->
           ( String.sub line 0 i,
             Some (String.sub line (i + 3) (String.length line - i - 3)) )
         | None -> (line, None)
       in
       om_sample_ok sample
       && match exemplar with None -> true | Some e -> om_exemplar_ok e))

let test_openmetrics () =
  let c = Metrics.counter "test_obs.om.requests" in
  Metrics.Counter.add c 7;
  let g = Metrics.gauge "test_obs.om.depth" in
  Metrics.Gauge.set g 3.5;
  let h = Metrics.histogram "test_obs.om.latency" in
  Metrics.Histogram.observe h 0.25;
  Metrics.Histogram.observe h 0.75;
  let text = Metrics.to_openmetrics () in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "grammar: %S" l) true (om_line_ok l))
    lines;
  Alcotest.(check bool) "ends with # EOF" true (List.nth lines (List.length lines - 1) = "# EOF");
  (* every counter family exposes exactly a _total sample *)
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; name; "counter" ] ->
        Alcotest.(check bool)
          (name ^ " has a _total sample")
          true
          (List.exists
             (fun l' ->
               String.length l' > String.length name + 7
               && String.sub l' 0 (String.length name + 7) = name ^ "_total ")
             lines)
      | _ -> ())
    lines;
  Alcotest.(check bool) "counter series present" true
    (List.exists (fun l -> l = "tpan_test_obs_om_requests_total 7") lines);
  (* histograms expose explicit cumulative buckets, not summary
     quantiles: _bucket{le=...} samples, a +Inf bucket, _count, _sum *)
  let starts_with p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let bucket_lines =
    List.filter (fun l -> starts_with "tpan_test_obs_om_latency_bucket{le=" l) lines
  in
  Alcotest.(check bool) "bucket samples present" true (List.length bucket_lines >= 2);
  Alcotest.(check bool) "+Inf bucket present" true
    (List.exists (fun l -> starts_with "tpan_test_obs_om_latency_bucket{le=\"+Inf\"}" l)
       bucket_lines);
  let bucket_counts =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | _series :: v :: _ -> int_of_string_opt v
        | _ -> None)
      bucket_lines
  in
  Alcotest.(check bool) "bucket counts cumulative (monotone)" true
    (fst
       (List.fold_left
          (fun (ok, prev) c -> (ok && c >= prev, c))
          (true, 0) bucket_counts));
  Alcotest.(check bool) "last bucket equals _count" true
    (match (List.rev bucket_counts, ()) with
    | last :: _, () ->
      List.exists
        (fun l -> l = Printf.sprintf "tpan_test_obs_om_latency_count %d" last)
        lines
    | [], () -> false);
  Alcotest.(check bool) "_sum present" true
    (List.exists (fun l -> starts_with "tpan_test_obs_om_latency_sum " l) lines)

(* Labelled families: distinct label sets are distinct series sharing
   one # TYPE line; exemplar trace ids ride on histogram buckets. *)
let test_openmetrics_labels () =
  let c1 = Metrics.counter_with "test_obs.om.lreq" [ ("endpoint", "/eval") ] in
  let c2 = Metrics.counter_with "test_obs.om.lreq" [ ("endpoint", "/sweep") ] in
  Metrics.Counter.add c1 3;
  Metrics.Counter.incr c2;
  Alcotest.(check bool) "re-registration returns the same series" true
    (Metrics.counter_with "test_obs.om.lreq" [ ("endpoint", "/eval") ] == c1);
  let h = Metrics.histogram_with "test_obs.om.llat" [ ("endpoint", "/eval") ] in
  Metrics.Histogram.observe ~trace_id:"tid-exemplar-1" h 0.003;
  let text = Metrics.to_openmetrics () in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "grammar: %S" l) true (om_line_ok l))
    lines;
  Alcotest.(check bool) "labelled counter series /eval" true
    (List.mem "tpan_test_obs_om_lreq_total{endpoint=\"/eval\"} 3" lines);
  Alcotest.(check bool) "labelled counter series /sweep" true
    (List.mem "tpan_test_obs_om_lreq_total{endpoint=\"/sweep\"} 1" lines);
  Alcotest.(check int) "one TYPE line for the family" 1
    (List.length (List.filter (fun l -> l = "# TYPE tpan_test_obs_om_lreq counter") lines));
  Alcotest.(check bool) "bucket exemplar carries the trace id" true
    (List.exists
       (fun l ->
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
           in
           go 0
         in
         has "tpan_test_obs_om_llat_bucket{" && has "# {trace_id=\"tid-exemplar-1\"}")
       lines)

let test_snapshot_filtering () =
  let _untouched = Metrics.histogram "test_obs.filter.h" in
  let c = Metrics.counter "test_obs.filter.c" in
  Metrics.Counter.incr c;
  let names ~all = List.map fst (Metrics.snapshot ~all ()) in
  Alcotest.(check bool) "untouched histogram omitted by default" false
    (List.mem "test_obs.filter.h" (names ~all:false));
  Alcotest.(check bool) "zero counter kept" true
    (List.mem "test_obs.filter.c" (names ~all:false));
  Alcotest.(check bool) "--all keeps untouched histograms" true
    (List.mem "test_obs.filter.h" (names ~all:true));
  Metrics.Histogram.observe (Metrics.histogram "test_obs.filter.h") 1.0;
  Alcotest.(check bool) "observed histogram appears" true
    (List.mem "test_obs.filter.h" (names ~all:false))

let test_log_sinks () =
  let seen = ref [] in
  Log.set_sinks [ (Log.Info, fun r -> seen := r :: !seen) ];
  Alcotest.(check bool) "debug disabled" false (Log.enabled Log.Debug);
  Alcotest.(check bool) "info enabled" true (Log.enabled Log.Info);
  Log.debug "dropped";
  Log.info "kept" ~fields:[ ("n", J.Int 3) ];
  Log.warn "also kept";
  Log.set_sinks [];
  Alcotest.(check bool) "nothing enabled once silenced" false (Log.enabled Log.Error);
  Log.error "after teardown: dropped";
  let records = List.rev !seen in
  Alcotest.(check int) "two records passed the level filter" 2 (List.length records);
  let r = List.hd records in
  Alcotest.(check string) "message kept" "kept" r.Log.msg;
  Alcotest.(check bool) "level kept" true (r.Log.level = Log.Info);
  Alcotest.(check bool) "field kept" true (r.Log.fields = [ ("n", J.Int 3) ]);
  Alcotest.(check bool) "timestamp is sane" true (r.Log.ts > 1e9)

let test_log_ndjson_sink () =
  let path = Filename.temp_file "tpan_log" ".ndjson" in
  let oc = open_out path in
  Log.set_sinks [ (Log.Debug, Log.ndjson_sink oc) ];
  Log.warn "ctrl \x01 and \"quotes\"" ~fields:[ ("file", J.Str "a\\b\nc") ];
  Log.set_sinks [];
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match J.of_string line with
  | Ok doc ->
    Alcotest.(check (option string)) "level round-trips" (Some "warn")
      (Option.bind (J.member "level" doc) J.to_string_opt);
    Alcotest.(check (option string)) "control chars in msg round-trip"
      (Some "ctrl \x01 and \"quotes\"")
      (Option.bind (J.member "msg" doc) J.to_string_opt);
    Alcotest.(check (option string)) "field round-trips" (Some "a\\b\nc")
      (Option.bind (Option.bind (J.member "fields" doc) (J.member "file")) J.to_string_opt)
  | Error e -> Alcotest.fail ("ndjson line does not parse: " ^ e)

(* Raw domains, with no pool around them, update one counter, one
   histogram and one gauge: every update lands, because the cells
   themselves are safe from any domain. *)
let test_metrics_any_domain () =
  let c = Metrics.counter "test.obs.cross_domain" in
  let h = Metrics.histogram "test.obs.cross_domain_obs" in
  let g = Metrics.gauge "test.obs.cross_domain_peak" in
  Metrics.Counter.reset c;
  Metrics.Histogram.reset h;
  Metrics.Gauge.reset g;
  let n = 2_000_000 in
  let work k () =
    for i = 1 to n do
      Metrics.Counter.incr c;
      if i mod 200 = 0 then Metrics.Histogram.observe h (float_of_int i);
      Metrics.Gauge.set_max g (float_of_int (k * i))
    done
  in
  let ds = List.map (fun k -> Domain.spawn (work k)) [ 1; 2 ] in
  List.iter Domain.join ds;
  Alcotest.(check int) "no increment lost" (2 * n) (Metrics.Counter.value c);
  Alcotest.(check int) "every observation counted" (2 * n / 200) (Metrics.Histogram.count h);
  (* each domain observes 200·(1 + … + n/200); integer partial sums
     below 2^53 make the float sum exact in any order *)
  let per_domain = 200. *. float_of_int (n / 200) *. float_of_int ((n / 200) + 1) /. 2. in
  Alcotest.(check (float 0.)) "exact histogram sum" (2. *. per_domain) (Metrics.Histogram.sum h);
  Alcotest.(check (float 0.)) "gauge keeps the larger peak" (float_of_int (2 * n))
    (Metrics.Gauge.value g)

let test_log_concurrent_domains () =
  let path = Filename.temp_file "tpan_obs" ".ndjson" in
  let oc = open_out path in
  Log.set_sinks [ (Log.Debug, Log.ndjson_sink oc) ];
  let emit k () =
    for i = 1 to 2000 do
      Log.info "concurrent" ~fields:[ ("domain", J.Int k); ("i", J.Int i) ]
    done
  in
  let ds = List.map (fun k -> Domain.spawn (emit k)) [ 1; 2 ] in
  List.iter Domain.join ds;
  Log.set_sinks [];
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "one line per record" 4000 (List.length !lines);
  Alcotest.(check int) "every line parses" 4000
    (List.length (List.filter (fun l -> Result.is_ok (J.of_string l)) !lines))

let test_trace_lanes () =
  Trace.set_enabled true;
  Trace.clear ();
  Trace.set_lane 3;
  ignore (Trace.with_span "laned" (fun sp -> Trace.add_attr sp "k" "v"));
  Trace.set_lane 0;
  ignore (Trace.with_span "mainline" (fun _ -> ()));
  Trace.set_enabled false;
  let evs = Trace.events () in
  let lane name = (List.find (fun (e : Trace.event) -> e.name = name) evs).lane in
  Alcotest.(check int) "set_lane stamps events" 3 (lane "laned");
  Alcotest.(check int) "lane 0 by default" 0 (lane "mainline");
  (* lanes survive the NDJSON round-trip as Chrome-trace tids *)
  let path = Filename.temp_file "tpan_obs" ".ndjson" in
  let oc = open_out path in
  Trace.write_ndjson oc;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let parsed = List.filter_map Trace.parse_line !lines in
  let plane name = (List.find (fun (e : Trace.event) -> e.name = name) parsed).Trace.lane in
  Alcotest.(check int) "lane survives parse_line" 3 (plane "laned");
  Alcotest.(check int) "lane 0 survives parse_line" 0 (plane "mainline");
  Trace.clear ()

let test_progress () =
  let hits = ref [] in
  let hook = Progress.every 10 (fun n -> hits := n :: !hits) in
  for i = 1 to 35 do
    hook i
  done;
  Alcotest.(check (list int)) "fires every interval" [ 30; 20; 10 ] !hits;
  let silent = Progress.every 0 (fun _ -> Alcotest.fail "interval 0 must not fire") in
  silent 5

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter & gauge" `Quick test_counter_gauge;
      Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
      Alcotest.test_case "histogram window cap" `Quick test_histogram_window_cap;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_mode;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "ndjson round-trip" `Quick test_ndjson_roundtrip;
      Alcotest.test_case "progress hooks" `Quick test_progress;
      Alcotest.test_case "jsonv escaping" `Quick test_jsonv_escape;
      Alcotest.test_case "jsonv parser" `Quick test_jsonv_parser;
      Alcotest.test_case "jsonv huge floats stay floats" `Quick test_jsonv_huge_floats;
      Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
      Alcotest.test_case "openmetrics labels and exemplars" `Quick
        test_openmetrics_labels;
      Alcotest.test_case "snapshot filtering" `Quick test_snapshot_filtering;
      Alcotest.test_case "log sinks & levels" `Quick test_log_sinks;
      Alcotest.test_case "log ndjson sink" `Quick test_log_ndjson_sink;
      Alcotest.test_case "log lines from concurrent domains stay whole" `Quick
        test_log_concurrent_domains;
      Alcotest.test_case "metrics updates from any domain are exact" `Quick
        test_metrics_any_domain;
      Alcotest.test_case "trace lanes" `Quick test_trace_lanes;
    ] )
