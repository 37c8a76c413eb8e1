(* The cross-surface differential: one query per builtin and kind, asked
   of the library ([Tpan.Query.run]), the socket ([Serve.handle], then a
   real socket, then a server whose caches were replayed from a cache
   directory) and, for analyze and sweep, the CLI ([tpan … --json]). Every
   surface must answer the same bytes, trace id masked, and the CLI must
   exit with the envelope's exit code. Error answers count too: [analyze]
   on a symbolic builtin is an error on every surface. *)

module Serve = Tpan_serve.Serve
module J = Tpan_obs.Jsonv
module Q = Tpan_mathkit.Q

type case = {
  kind : string;
  query : Tpan.Query.t;
  target : string;
  body : string;
  argv : string option;  (** the same query as [tpan] arguments *)
}

let rationals kvs = J.Obj (List.map (fun (k, q) -> (k, J.Str (Q.to_string q))) kvs)
let quoted s = "'" ^ s ^ "'"

(* Eval at [Sampler.base_point] on a symbolic net and at [{}] on a
   concrete one. A concrete sweep steps the model's first parameter over
   3 steps; a symbolic one steps the largest time symbol of the base
   point, the other symbols bound. Neither names a transition, so both
   report the model's deliveries. *)
let cases (m : Tpan.Models.t) =
  let net = Tpan.Query.Model { name = m.name; params = [] } in
  let model = ("model", J.Str m.name) in
  let d = List.hd m.deliveries in
  let point =
    if m.params <> [] then []
    else Option.get (Tpan_check.Sampler.base_point (m.make []))
  in
  let axis, bindings =
    let name, v =
      match m.params with
      | p :: _ -> p
      | [] ->
        List.fold_left
          (fun (bn, bv) (n, v) -> if n.[0] <> 'f' && Q.compare v bv > 0 then (n, v) else (bn, bv))
          ("", Q.zero) point
    in
    let hi = if Q.is_zero v then Q.one else Q.mul v (Q.of_int 2) in
    ( { Tpan_perf.Sweep.name; lo = v; hi; steps = 3 },
      List.filter (fun (n, _) -> n <> name) point )
  in
  let spec = Printf.sprintf "%s=%s..%s:3" axis.name (Q.to_string axis.lo) (Q.to_string axis.hi) in
  [
    {
      kind = "analyze";
      query = Tpan.Query.Analyze { net; max_states = None; throughputs = [ d ] };
      target = "/analyze";
      body = J.to_string (J.Obj [ model; ("throughputs", J.List [ J.Str d ]) ]);
      argv = Some (Printf.sprintf "analyze -m %s -t %s --json" m.name d);
    };
    {
      kind = "eval";
      query = Tpan.Query.Eval { net; max_states = None; transition = d; point };
      target = "/eval";
      body = J.to_string (J.Obj [ model; ("transition", J.Str d); ("point", rationals point) ]);
      argv = None;
    };
    {
      kind = "sweep";
      query =
        Tpan.Query.Sweep
          { net; max_states = None; transitions = []; bindings; axes = [ axis ]; jobs = None };
      target = "/sweep";
      body =
        J.to_string
          (J.Obj [ model; ("bindings", rationals bindings); ("axes", J.List [ J.Str spec ]) ]);
      argv =
        Some
          (String.concat " "
             ([ "sweep"; "-m"; m.name; "--vary"; quoted spec; "--json" ]
             @ List.concat_map
                 (fun (k, q) -> [ "-p"; quoted (k ^ "=" ^ Q.to_string q) ])
                 bindings));
    };
  ]

let all_cases () = List.concat_map (fun m -> List.map (fun c -> (m, c)) (cases m)) Tpan.Models.all
let label (m : Tpan.Models.t) c = m.name ^ " " ^ c.kind

(* The library's answer, rendered as the server renders a body. *)
let library c =
  Tpan_obs.Context.with_ctx (Tpan_obs.Context.make ()) (fun () ->
      let net_hash, outcome = Tpan.Query.run c.query in
      J.to_string_hum (Tpan.Query.to_json ~net_hash outcome) ^ "\n")

let served c = (Serve.handle Serve.default_config ~meth:"POST" ~target:c.target ~body:c.body).Serve.body

let exit_code body =
  match Option.bind (Result.to_option (J.of_string body)) (J.member "exit_code") with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "no exit_code in %s" body

let same what want got = Alcotest.(check string) what (Test_cli.mask_trace_id want) (Test_cli.mask_trace_id got)

let test_builtin (m : Tpan.Models.t) () =
  List.iter
    (fun c ->
      let name = label m c in
      let want = library c in
      same (name ^ ": library = Serve.handle") want (served c);
      match c.argv with
      | None -> ()
      | Some argv ->
        let rc, out = Test_cli.run_capture argv in
        Alcotest.(check int) (name ^ ": CLI exit code = envelope exit_code") (exit_code want) rc;
        if rc = 0 then same (name ^ ": library = tpan --json") want out)
    (cases m)

(* The socket kinds once more, all down one keep-alive connection to a
   listening server: the error answers among them keep it open. *)
let test_real_socket () =
  let module K = Test_keepalive in
  K.with_server K.base_config (fun port ->
      let conn = K.connect port in
      Fun.protect
        ~finally:(fun () -> K.close_client conn)
        (fun () ->
          List.iter
            (fun (m, c) ->
              K.send conn (K.request "POST" c.target c.body);
              let r = K.recv_exn conn (label m c) in
              same (label m c ^ ": library = socket") (library c) r.K.body)
            (all_cases ())))

(* A restarted server replays its cache directory: every answer it
   serves from replayed artifacts must equal the one given before. *)
let test_cache_dir_restart () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpan_query_cache_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> Tpan.Artifact.configure ())
    (fun () ->
      Tpan.Artifact.configure ~persist_dir:dir ();
      let cases = all_cases () in
      let before = List.map (fun (_, c) -> library c) cases in
      List.iter
        (fun kind ->
          Alcotest.(check bool) (kind ^ " persisted") true
            (Sys.file_exists (Filename.concat dir (kind ^ ".ndjson"))))
        [ "report"; "closed_form"; "eval" ];
      Tpan.Artifact.configure ~persist_dir:dir ();
      List.iter2
        (fun (m, c) want -> same (label m c ^ ": before the restart = replayed server") want (served c))
        cases before)

(* ----- the per-domain memo of builtin canonical forms ----- *)

let eval_case name =
  List.find (fun (m, c) -> (m : Tpan.Models.t).name = name && c.kind = "eval") (all_cases ())
  |> snd

(* A warm /eval of a builtin neither rebuilds its net nor re-serializes
   it to find its hash: counted on the calling domain, the whole request
   allocates well under the 13,000 minor words that took. *)
let test_warm_eval_minor_words () =
  let c = eval_case "stopwait-sym" in
  let want = library c in
  for _ = 1 to 3 do same "a warm /eval" want (served c) done;
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do ignore (served c) done;
  let per = (Gc.minor_words () -. w0) /. float n in
  Alcotest.(check bool) (Printf.sprintf "at most 8,000 minor words per /eval (%.0f)" per) true
    (per <= 8000.)

(* A domain starts with an empty memo and builds every net afresh, on
   emptied caches: its answers equal the main domain's, kind by kind. *)
let test_fresh_domain_same_bytes () =
  let cases = all_cases () in
  let main = List.map (fun (_, c) -> served c) cases in
  Tpan.Artifact.reset_caches ();
  let fresh = Domain.join (Domain.spawn (fun () -> List.map (fun (_, c) -> served c) cases)) in
  List.iter2
    (fun ((m, c), want) got -> same (label m c ^ ": main domain = fresh domain") want got)
    (List.combine cases main) fresh

(* A name that is not a builtin is never kept: it is refused the same
   way each time, and the builtins still answer after it. *)
let test_unknown_model_refused_twice () =
  let body = {|{"model":"no-such-model","transition":"t7","point":{}}|} in
  let ask () = Serve.handle Serve.default_config ~meth:"POST" ~target:"/eval" ~body in
  let r1 = ask () and r2 = ask () in
  Alcotest.(check int) "an unknown model answers 400" 400 r1.Serve.status;
  Alcotest.(check int) "and again" 400 r2.Serve.status;
  same "with the same body" r1.Serve.body r2.Serve.body;
  let c = eval_case "stopwait-sym" in
  same "a builtin answers after it" (library c) (served c)

let suite =
  ( "query",
    List.map
      (fun (m : Tpan.Models.t) ->
        Alcotest.test_case (m.name ^ ": library = socket = CLI") `Quick (test_builtin m))
      Tpan.Models.all
    @ [
        Alcotest.test_case "every kind over a real socket" `Quick test_real_socket;
        Alcotest.test_case "every kind after a --cache-dir restart" `Quick
          test_cache_dir_restart;
        Alcotest.test_case "a warm /eval allocates at most 8,000 minor words" `Quick
          test_warm_eval_minor_words;
        Alcotest.test_case "a fresh domain answers as the main one" `Quick
          test_fresh_domain_same_bytes;
        Alcotest.test_case "an unknown model is refused twice alike" `Quick
          test_unknown_model_refused_twice;
      ] )
