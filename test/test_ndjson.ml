(* The one NDJSON path at its boundary. Every persisted file kind — a run
   ledger holding CLI and serve rows, a flight file, a cache directory of
   closed_form, eval and report lines — is read back after each of its
   lines in turn is cut at every byte offset, and after a NUL is written
   over each of its bytes in turn. The readers never raise, every intact
   line still loads (a cache entry under its original key, equal to the
   entry written), and exactly the corrupted line is counted skipped. *)

module J = Tpan_obs.Jsonv
module Ndjson = Tpan_obs.Ndjson
module Ledger = Tpan_obs.Ledger
module Dump = Tpan_obs.Dump
module Cache = Tpan_cache.Cache
module Codec = Tpan_cache.Codec
module Serve = Tpan_serve.Serve

(* a fresh directory for [f], removed (with the files in it) after *)
let with_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpan_ndjson_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* Every single-line corruption: line [i] cut to its first [k] bytes
   (0 < k < length), or with byte [k] replaced by NUL. *)
let corruptions lines =
  List.concat
    (List.mapi
       (fun i line ->
         let n = String.length line in
         List.init (n - 1) (fun k -> (i, String.sub line 0 (k + 1)))
         @ List.init n (fun k ->
               (i, String.mapi (fun j c -> if j = k then '\000' else c) line)))
       lines)

let replace i bad lines = List.mapi (fun j l -> if j = i then bad else l) lines
let without i xs = List.filteri (fun j _ -> j <> i) xs

(* [check_file path lines reread] writes every corruption of [lines] to
   [path]; [reread] loads it and answers the loaded lines, re-encoded,
   with the skipped count. *)
let check_file what path lines reread =
  List.iter
    (fun (i, bad) ->
      write_lines path (replace i bad lines);
      let loaded, skipped = reread () in
      if loaded <> without i lines || skipped <> 1 then
        Alcotest.failf "%s: line %d corrupted as %S: %d of %d intact lines loaded, %d skipped"
          what i bad (List.length loaded) (List.length lines - 1) skipped)
    (corruptions lines)

(* ----- the run ledger: CLI rows and serve rows ----- *)

let cli_row subcommand =
  Ledger.make ~version:"1.1.0-test" ~timestamp:1754000000.25 ~subcommand
    ~argv:[ "tpan"; subcommand; "-m"; "stopwait"; "-t"; "t7" ]
    ~model:"stopwait" ~trace_id:"0123456789abcdef"
    ~stages:[ { Ledger.stage = "concrete.build"; seconds = 0.125; count = 2 } ]
    ~metrics:(J.List [ J.Obj [ ("name", J.Str "x"); ("kind", J.Str "counter"); ("value", J.Int 7) ] ])
    ~report:(J.Obj [ ("states", J.Int 18); ("mean_cycle_time", J.Str "1805/5") ])
    ~exit_code:0 ~duration:0.5 ()

let test_ledger () =
  with_dir @@ fun dir ->
  List.iter
    (fun r ->
      match Ledger.append ~dir r with Ok () -> () | Error e -> Alcotest.fail e)
    [ cli_row "analyze"; cli_row "sweep" ];
  let config = { Serve.default_config with Serve.ledger_dir = Some dir } in
  List.iter
    (fun (target, body) -> ignore (Serve.handle config ~meth:"POST" ~target ~body : Serve.response))
    [ ("/eval", Test_serve.eval_body); ("/analyze", {|{"model":"stopwait-sym"}|}) ];
  let path = Ledger.runs_file dir in
  let lines = read_lines path in
  Alcotest.(check int) "two CLI rows and two serve rows" 4 (List.length lines);
  Alcotest.(check int) "the serve rows carry a request object" 2
    (List.length
       (List.filter
          (fun l -> Test_cli.contains l {|"request":{"method":"POST"|})
          lines));
  let encode r = J.to_string (Ledger.to_json r) in
  Alcotest.(check (list string)) "rows round-trip byte for byte" lines
    (match Ledger.load ~dir () with
     | Ok rows -> List.map encode rows
     | Error e -> Alcotest.fail e);
  check_file "ledger" path lines (fun () ->
      let via_load =
        match Ledger.load ~dir () with Ok rows -> rows | Error e -> Alcotest.fail e
      in
      match Ndjson.load path Ledger.of_json with
      | Ok (rows, skipped) ->
        if List.map encode via_load <> List.map encode rows then
          Alcotest.fail "Ledger.load and Ndjson.load disagree";
        (List.map encode rows, skipped)
      | Error e -> Alcotest.fail e)

(* ----- a flight file ----- *)

let test_flight () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "flight.ndjson" in
  let small f = { f with Dump.metrics = J.List [ J.Obj [ ("name", J.Str "x"); ("value", J.Int 3) ] ] } in
  List.iter
    (fun f -> match Dump.append path (small f) with Ok () -> () | Error e -> Alcotest.fail e)
    [
      Dump.snapshot ();
      Dump.snapshot ~kind:"dump" ~reason:"slow-request POST /eval 12.5ms" ~trace_id:"feedface" ();
      Dump.snapshot ~kind:"dump" ~reason:"SIGUSR1" ();
    ];
  let lines = read_lines path in
  let encode f = J.to_string (Dump.to_json f) in
  Alcotest.(check (list string)) "frames round-trip byte for byte" lines
    (match Dump.load path with Ok fs -> List.map encode fs | Error e -> Alcotest.fail e);
  check_file "flight" path lines (fun () ->
      let via_load = match Dump.load path with Ok fs -> fs | Error e -> Alcotest.fail e in
      match Ndjson.load path Dump.of_json with
      | Ok (frames, skipped) ->
        if List.map encode via_load <> List.map encode frames then
          Alcotest.fail "Dump.load and Ndjson.load disagree";
        (List.map encode frames, skipped)
      | Error e -> Alcotest.fail e)

(* ----- a persisted cache directory ----- *)

(* warm stopwait-sym and abp-sym (closed forms and an eval each) and the
   concrete stopwait and abp (reports), persisted under [dir] *)
let warm_cache_dir dir =
  Tpan.Artifact.configure ~persist_dir:dir ();
  Fun.protect
    ~finally:(fun () ->
      Tpan.Artifact.configure ();
      Tpan.Artifact.reset_caches ())
    (fun () ->
      List.iter
        (fun name ->
          let m = Option.get (Tpan.Models.find name) in
          let net = Tpan.Query.Model { name; params = [] } in
          let query =
            if m.params = [] then
              Tpan.Query.Eval
                {
                  net;
                  max_states = None;
                  transition = List.hd m.deliveries;
                  point = Option.get (Tpan_check.Sampler.base_point (m.make []));
                }
            else Tpan.Query.Analyze { net; max_states = None; throughputs = m.deliveries }
          in
          match Tpan.Query.run query with
          | _, Ok _ -> ()
          | _, Error e -> Alcotest.failf "%s: %s" name (Tpan.Error.to_string e))
        [ "stopwait-sym"; "abp-sym"; "stopwait"; "abp" ])

(* The cache's "skipped" warning carries the reader's count. *)
let skipped_warnings = ref []

let capture_skips () =
  skipped_warnings := [];
  Tpan_obs.Log.set_sinks
    [
      ( Tpan_obs.Log.Warn,
        fun r ->
          if r.Tpan_obs.Log.msg = "cache: skipped undecodable persisted entries" then
            match List.assoc_opt "skipped" r.Tpan_obs.Log.fields with
            | Some (J.Int n) -> skipped_warnings := n :: !skipped_warnings
            | _ -> () );
    ]

(* Replays one kind's file into a cache of its own name (its counters
   stay apart from the artifact caches'), then looks every original key
   up: the entries found, re-encoded, and the warned skip count. *)
let replay_kind (type a) ~kind ~(encode : a -> J.t) ~(decode : J.t -> a option) dir
    originals () =
  skipped_warnings := [];
  let c = Cache.create ~name:("boundary." ^ kind) ~persist:dir ~encode ~decode () in
  let found =
    List.filter_map
      (fun (key, _) -> Option.map (fun v -> J.to_string (encode v)) (Cache.find c key))
      originals
  in
  (found, List.fold_left ( + ) 0 !skipped_warnings)

let check_kind (type a) dir ~kind ~(encode : a -> J.t) ~(decode : J.t -> a option) =
  let lines = read_lines (Filename.concat dir (kind ^ ".ndjson")) in
  Alcotest.(check bool) (kind ^ " lines persisted") true (List.length lines >= 2);
  (* each line's key, and its value as written, re-encoded after a decode *)
  let originals =
    List.map
      (fun line ->
        match J.of_string line with
        | Ok doc -> (
          match (J.member "key" doc, Option.bind (J.member "value" doc) decode) with
          | Some (J.Str key), Some v -> (key, J.to_string (encode v))
          | _ -> Alcotest.failf "%s: undecodable line %s" kind line)
        | Error e -> Alcotest.failf "%s: %s" kind e)
      lines
  in
  with_dir @@ fun scratch ->
  let path = Filename.concat scratch ("boundary." ^ kind ^ ".ndjson") in
  let replay = replay_kind ~kind ~encode ~decode scratch originals in
  write_lines path lines;
  Alcotest.(check (list string)) (kind ^ ": every entry replays under its key")
    (List.map snd originals) (fst (replay ()));
  List.iter
    (fun (i, bad) ->
      write_lines path (replace i bad lines);
      let found, skipped = replay () in
      if found <> List.map snd (without i originals) || skipped <> 1 then
        Alcotest.failf "%s: line %d corrupted as %S: %d of %d entries replayed, %d skipped"
          kind i bad (List.length found) (List.length lines - 1) skipped)
    (corruptions lines)

let test_cache_dir () =
  with_dir @@ fun dir ->
  warm_cache_dir dir;
  capture_skips ();
  Fun.protect
    ~finally:(fun () -> Tpan_obs.Log.set_sinks [])
    (fun () ->
      check_kind dir ~kind:"closed_form" ~encode:Codec.ratfun_to_json
        ~decode:Codec.ratfun_of_json;
      check_kind dir ~kind:"eval" ~encode:Codec.q_to_json ~decode:Codec.q_of_json;
      (* the report codec is the artifact layer's own; its lines replay
         here as the JSON they hold *)
      check_kind dir ~kind:"report" ~encode:Fun.id ~decode:Option.some)

(* ----- concurrent appenders ----- *)

let test_concurrent_append () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "rows.ndjson" in
  let rows = 500 in
  let results =
    Tpan_par.Pool.try_map ~jobs:4
      (fun lane ->
        for i = 1 to rows do
          match
            Ndjson.append path
              (J.Obj [ ("lane", J.Int lane); ("i", J.Int i); ("pad", J.Str (String.make 200 'x')) ])
          with
          | Ok () -> ()
          | Error e -> failwith e
        done)
      [ 0; 1; 2; 3 ]
  in
  List.iter
    (function Ok () -> () | Error (e : Tpan_par.Pool.error) -> Alcotest.fail e.message)
    results;
  let decode doc =
    match (J.member "lane" doc, J.member "i" doc) with
    | Some (J.Int lane), Some (J.Int i) -> Some (lane, i)
    | _ -> None
  in
  match Ndjson.load path decode with
  | Ok (seen, skipped) ->
    Alcotest.(check int) "no torn line" 0 skipped;
    Alcotest.(check int) "2,000 whole lines" 2000 (List.length seen);
    Alcotest.(check int) "each row exactly once" 2000
      (List.length (List.sort_uniq compare seen))
  | Error e -> Alcotest.fail e

let suite =
  ( "ndjson",
    [
      Alcotest.test_case "ledger survives every cut and NUL" `Quick test_ledger;
      Alcotest.test_case "flight file survives every cut and NUL" `Quick test_flight;
      Alcotest.test_case "cache dir survives every cut and NUL" `Quick test_cache_dir;
      Alcotest.test_case "4 domains x 500 appends, whole lines" `Quick
        test_concurrent_append;
    ] )
