(* The traced replay: the first requests of a workload's list, sent
   in-process through [Serve.handle] with the process configured the way
   a default [tpan serve] configures itself (telemetry on, span tracing
   with a 4096-event retention cap, a ledger row per request).

   A request is either timed bare ([Serve.handle] alone) or traced. A
   traced request first goes through a replica of the server's path:
   the public function of each layer it passes through (decode, load or
   parse, canonical hash, cache lookup, derivation, ℚ evaluation, sweep,
   encode, ledger row), each in a span of the benchmark's own under one
   "request" span. Then the request goes through [Serve.handle] in a
   sibling span. The replica's rendering must equal the server's byte
   for byte, trace id aside, so the spans time the same work the server
   does; the bare requests give the tracing overhead.

   A layer the served path skips on a workload (the TRG build on a
   warm /eval, say) is timed by a "probe" on the workload's own first
   few nets, so every layer reports a cost measured on the workload's
   inputs; where the workload has no such input at all (ABP closed
   forms on the CLI workload) a fixed "reference" probe over the
   builtin stop-and-wait and ABP nets stands in. *)

module Q = Tpan_mathkit.Q
module J = Tpan_obs.Jsonv
module M = Tpan_perf.Measures
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module Lin = Tpan_symbolic.Linexpr
module Rf = Tpan_symbolic.Ratfun
module Poly = Tpan_symbolic.Poly
module Oracle = Tpan_symbolic.Oracle
module SG = Tpan_core.Symbolic
module CG = Tpan_core.Concrete
module Tpn = Tpan_core.Tpn
module Serve = Tpan_serve.Serve
module I = Inputs

let ok = function Ok v -> v | Error e -> failwith (Tpan.Error.to_string e)
let max_states = I.max_states

(* ----- spans and counts ----- *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  start : float;
  stop : float;
  req : int;  (** index of the replayed request, -1 for probes *)
  root : string;  (** "request", "serve.handle", "probe" or "reference" *)
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : (int * string) list ref = ref []
let cur_req = ref (-1)

(* durations (seconds) and counts, keyed by (root kind, name) *)
let samples : (string * string, float list) Hashtbl.t = Hashtbl.create 64

let note root name v =
  let k = (root, name) in
  Hashtbl.replace samples k (v :: Option.value (Hashtbl.find_opt samples k) ~default:[])

(* [timed name f] runs [f] in a span and also returns its duration. A
   span opened with no span open is a root of kind [name]. *)
let timed name f =
  incr next_id;
  let id = !next_id in
  let parent, root = match !stack with (p, r) :: _ -> (p, r) | [] -> (0, name) in
  stack := (id, root) :: !stack;
  let start = Proc.now () in
  let close () =
    let stop = Proc.now () in
    stack := List.tl !stack;
    spans := { id; parent; name; start; stop; req = !cur_req; root } :: !spans;
    note root name (stop -. start);
    stop -. start
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let span name f = fst (timed name f)
let count name v = note (match !stack with (_, r) :: _ -> r | [] -> "") name v

(* ----- the server's renderings, rebuilt from the same values ----- *)

let eval_fields transition v =
  [
    ("transition", J.Str transition);
    ("throughput", J.Str (Q.to_string v));
    ("decimal", J.Raw (Format.asprintf "%a" (Q.pp_decimal ~digits:6) v));
    ("period", J.Str (if Q.is_zero v then "inf" else Q.to_string (Q.inv v)));
  ]

let sweep_fields (sw : Tpan_perf.Sweep.t) =
  let qs l = J.Obj (List.map (fun (n, q) -> (n, J.Str (Q.to_string q))) l) in
  [
    ( "axes",
      J.List
        (List.map
           (fun (a : Tpan_perf.Sweep.axis) ->
             J.Obj
               [
                 ("name", J.Str a.name);
                 ("lo", J.Str (Q.to_string a.lo));
                 ("hi", J.Str (Q.to_string a.hi));
                 ("steps", J.Int a.steps);
               ])
           sw.axes) );
    ("columns", J.List (List.map (fun c -> J.Str c) sw.columns));
    ( "rows",
      J.List
        (List.map
           (fun (r : Tpan_perf.Sweep.row) ->
             J.Obj
               [
                 ("point", qs r.point);
                 ("values", qs r.values);
                 ( "error",
                   match r.error with None -> J.Null | Some e -> J.Str (Tpan.Error.to_string e) );
               ])
           sw.rows) );
  ]

(* ----- layer calls ----- *)

let qeval ~abp cf point =
  count "qeval.terms" (float_of_int (Poly.size (Rf.num cf) + Poly.size (Rf.den cf)));
  span (if abp then "qeval.abp" else "qeval.small") (fun () -> M.Symbolic.eval_at cf point)

(* The symbolic derivation [Artifact.closed_form] runs on a miss, one
   layer per span: TRG with the constraint oracle, decision-graph
   collapse, rate solve over rational functions, closed form. *)
let derive tpn transition =
  let g, dt = timed "trg.build" (fun () -> SG.build ~max_states tpn) in
  let states = SG.Graph.num_states g in
  count "trg.states" (float_of_int states);
  count "trg.states_per_ms" (float_of_int states /. (dt *. 1e3));
  let st = Oracle.stats (Tpn.oracle tpn) in
  count "oracle.queries" (float_of_int st.queries);
  count "oracle.fm_runs" (float_of_int st.fm_runs);
  if st.hits + st.misses > 0 then
    count "oracle.memo_hit_ratio" (float_of_int st.hits /. float_of_int (st.hits + st.misses));
  let dg = span "dg.collapse" (fun () -> DG.of_graph ~add:Lin.add ~mul:Rf.mul g) in
  count "dg.nodes" (float_of_int (List.length dg.nodes));
  let res =
    span "rates.solve" (fun () ->
        Rates.solve ~field:Rates.ratfun_field ~embed_prob:Fun.id
          ~embed_delay:(fun e -> Rf.of_poly (Poly.of_linexpr e))
          dg)
  in
  span "measures.closed_form" (fun () -> M.Symbolic.throughput res g transition)

let sweep_grid ~bindings ~exprs axis =
  let sw = span "sweep.grid" (fun () -> Tpan_perf.Sweep.over_expr ~jobs:2 ~bindings ~exprs [ axis ]) in
  count "sweep.points" (float_of_int (List.length sw.rows));
  sw

(* The body as the server reads it: JSON, then the point (or the sweep
   bindings) as exact rationals. *)
let decode item =
  span "jsonv.decode" (fun () ->
      let doc =
        match J.of_string (I.body_of item) with Ok d -> d | Error e -> failwith ("request body: " ^ e)
      in
      let field = match item with I.Sweep _ -> "bindings" | _ -> "point" in
      match J.member field doc with
      | Some (J.Obj kvs) ->
        List.map
          (fun (k, v) ->
            match v with J.Str s -> (k, Q.of_decimal_string s) | _ -> failwith (field ^ ": not a string"))
          kvs
      | _ -> [])

(* The run-ledger row a default server appends for every request. *)
let ledger ~dir item =
  let endpoint = I.path_of item in
  match
    span "ledger.append" (fun () ->
        Tpan_obs.Ledger.append ~dir
          (Tpan_obs.Ledger.make ~version:Tpan.Version.string ~timestamp:(Unix.gettimeofday ())
             ~subcommand:("serve:" ^ endpoint) ~argv:[ "serve"; "POST " ^ endpoint ]
             ?trace_id:(Tpan_obs.Context.trace_id ()) ~exit_code:0 ~duration:0. ()))
  with
  | Ok () -> ()
  | Error e -> failwith ("ledger: " ^ e)

(* What the server does for one request, layer by layer; returns the
   response body the server should produce. *)
let replica ~workload ~ledger_dir item =
  let point = decode item in
  let canonical tpn = span "canonical.hash" (fun () -> Tpan.Canonical.of_tpn tpn) in
  let encode ~kind c fields =
    let net_hash = Tpan.Canonical.hash c in
    span "jsonv.encode" (fun () -> I.envelope ~kind ~net_hash (fields ()))
  in
  let builtin name =
    canonical (span "models.load" (fun () -> ok (Tpan.Analysis.load (Tpan.Analysis.Builtin name))))
  in
  let body =
    match item with
    | I.Eval { net = I.Builtin name; transition; _ } ->
      let c = builtin name in
      let v =
        if workload = "eval-hot" then
          span "artifact.lookup" (fun () -> ok (Tpan.Artifact.eval ~max_states c ~transition ~point))
        else
          let cf = span "artifact.lookup" (fun () -> ok (Tpan.Artifact.closed_form ~max_states c ~transition)) in
          qeval ~abp:(name = "abp-sym") cf point
      in
      encode ~kind:"eval" c (fun () -> eval_fields transition v)
    | I.Eval { net = I.Source { src; _ }; transition; _ } ->
      let tpn = span "dsl.parse" (fun () -> Tpan_dsl.Parser.parse_string src) in
      let c = canonical tpn in
      let v = qeval ~abp:false (derive tpn transition) point in
      encode ~kind:"eval" c (fun () -> eval_fields transition v)
    | I.Sweep { model; transition; axis; _ } ->
      let c = builtin model in
      let cf = span "artifact.lookup" (fun () -> ok (Tpan.Artifact.closed_form ~max_states c ~transition)) in
      let sw = sweep_grid ~bindings:point ~exprs:[ ("thr(" ^ transition ^ ")", cf) ] axis in
      encode ~kind:"sweep" c (fun () -> sweep_fields sw)
    | I.Analyze { src; transition; _ } ->
      let tpn = span "dsl.parse" (fun () -> Tpan_dsl.Parser.parse_string src) in
      let c = canonical tpn in
      let report =
        span "analysis.compute" (fun () ->
            ok (Tpan.Analysis.compute ~max_states ~throughputs:[ transition ] tpn))
      in
      encode ~kind:"analysis" c (fun () -> Tpan.Analysis.report_fields report)
  in
  ledger ~dir:ledger_dir item;
  body

(* ----- probes ----- *)

(* A 32-point grid along the point's largest coordinate (the timeout, on
   every net here), doubling it: the timeout only grows, so every grid
   point keeps the timing constraints. *)
let probe_axis point =
  let name, v =
    List.fold_left (fun (bn, bv) (n, v) -> if Q.compare v bv > 0 then (n, v) else (bn, bv)) ("", Q.zero) point
  in
  ( List.filter (fun (n, _) -> n <> name) point,
    { Tpan_perf.Sweep.name; lo = v; hi = Q.mul v (Q.of_int 2); steps = 32 } )

let probe_symbolic ~load ~src ~transition ~point ~abp =
  ignore (span "models.load" load);
  let tpn = span "dsl.parse" (fun () -> Tpan_dsl.Parser.parse_string src) in
  let c = span "canonical.hash" (fun () -> Tpan.Canonical.of_tpn tpn) in
  let cf = derive tpn transition in
  ignore (qeval ~abp cf point);
  let bindings, axis = probe_axis point in
  ignore (sweep_grid ~bindings ~exprs:[ ("thr", cf) ] axis);
  ignore (Tpan.Artifact.closed_form ~max_states c ~transition);
  ignore (span "artifact.lookup" (fun () -> Tpan.Artifact.closed_form ~max_states c ~transition));
  ignore
    (span "analysis.compute" (fun () ->
         Tpan.Analysis.compute ~max_states ~throughputs:[ transition ] (Tpn.bind_times tpn point)))

(* The concrete pipeline [Analysis.compute] runs, one layer per span. *)
let probe_concrete ~load ~src ~transition =
  ignore (span "models.load" load);
  let tpn = span "dsl.parse" (fun () -> Tpan_dsl.Parser.parse_string src) in
  let c = span "canonical.hash" (fun () -> Tpan.Canonical.of_tpn tpn) in
  let g, dt = timed "trg.build" (fun () -> CG.build ~max_states tpn) in
  let states = CG.Graph.num_states g in
  count "trg.states" (float_of_int states);
  count "trg.states_per_ms" (float_of_int states /. (dt *. 1e3));
  let dg = span "dg.collapse" (fun () -> DG.of_graph ~add:Q.add ~mul:Q.mul g) in
  count "dg.nodes" (float_of_int (List.length dg.nodes));
  let res =
    span "rates.solve" (fun () ->
        Rates.solve ~field:Rates.q_field ~embed_prob:Fun.id ~embed_delay:Fun.id dg)
  in
  ignore (span "measures.closed_form" (fun () -> M.Concrete.throughput res g transition));
  ignore (Tpan.Artifact.analysis ~max_states ~throughputs:[ transition ] c);
  ignore
    (span "artifact.lookup" (fun () ->
         Tpan.Artifact.analysis ~max_states ~throughputs:[ transition ] c))

let probe_nets = 4

(* Probes on the workload's first [probe_nets] distinct nets. A probe
   that fails (a concrete net with no decision node, say) only loses
   its remaining spans. *)
let probes ~dir (w : I.t) =
  let builtin name transition point =
    ( name,
      fun () ->
        probe_symbolic
          ~load:(fun () -> ok (Tpan.Analysis.load (Tpan.Analysis.Builtin name)))
          ~src:(Tpan_dsl.Printer.to_string (I.builtin_tpn name))
          ~transition ~point ~abp:(name = "abp-sym") )
  in
  let probe_of i = function
    | I.Eval { net = I.Builtin name; transition; point; _ } -> builtin name transition point
    | I.Sweep { model; transition; bindings; axis; _ } ->
      builtin model transition ((axis.name, axis.lo) :: bindings)
    | I.Eval { net = I.Source { src; _ }; transition; point; _ } ->
      ( string_of_int i,
        fun () ->
          let file = Filename.concat dir (Printf.sprintf "probe%d.tpn" i) in
          Proc.write_file file src;
          probe_symbolic
            ~load:(fun () -> ok (Tpan.Analysis.load (Tpan.Analysis.File file)))
            ~src ~transition ~point ~abp:false )
    | I.Analyze { model; params; src; transition; _ } ->
      ( string_of_int i,
        fun () ->
          probe_concrete
            ~load:(fun () -> ok (Tpan.Analysis.load ~params (Tpan.Analysis.Builtin model)))
            ~src ~transition )
  in
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun i item ->
      let key, probe = probe_of i item in
      if Hashtbl.length seen < probe_nets && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        try span "probe" probe with
        | Sys.Break as e -> raise e
        | _ -> ()
      end)
    w.items;
  (* reference probes: ℚ evaluation and a sweep on the builtin nets *)
  let rng = Random.State.make [| 7 |] in
  ignore
    (span "reference" (fun () ->
         for _ = 1 to 8 do
           ignore (qeval ~abp:false (I.closed_form "stopwait-sym") (I.exact (I.draw_point rng "stopwait-sym")))
         done;
         for _ = 1 to 3 do
           ignore (qeval ~abp:true (I.closed_form "abp-sym") (I.exact (I.draw_point rng "abp-sym")))
         done;
         for _ = 1 to 2 do
           let bindings, axis = probe_axis (I.exact (I.draw_point rng "stopwait-sym")) in
           ignore (sweep_grid ~bindings ~exprs:[ ("thr", I.closed_form "stopwait-sym") ] axis)
         done))

(* ----- the replay ----- *)

type result = {
  layers : (string * float) list;  (** per-layer metric values *)
  replayed : int;
  failures : string list;
}

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

(* Per-layer value: the median over the served path's spans when the
   layer is on it, else over the probes, else over the reference. *)
let layer name =
  let get root = Option.value (Hashtbl.find_opt samples (root, name)) ~default:[] in
  match List.find_opt (fun l -> l <> []) [ get "request"; get "probe"; get "reference" ] with
  | Some l -> median l
  | None -> 0.

let run ~dir ~n (w : I.t) =
  Tpan_obs.Trace.set_enabled true;
  Tpan_obs.Trace.set_retention 4096;
  Tpan.Artifact.configure ();
  let config =
    {
      Serve.default_config with
      Serve.max_states = Some max_states;
      ledger_dir = Some dir;
      flight_path = Some (Filename.concat dir "flight.ndjson");
    }
  in
  let handle item = Serve.handle config ~meth:"POST" ~target:(I.path_of item) ~body:(I.body_of item) in
  let failures = ref [] in
  let fail i msg = failures := Printf.sprintf "replay request %d: %s" i msg :: !failures in
  let prime () =
    List.iteri
      (fun i item ->
        let r = handle item in
        if r.Serve.status <> 200 then fail (-1 - i) ("priming answered " ^ string_of_int r.Serve.status))
      w.prime
  in
  let items = Array.sub w.items 0 (min n (Array.length w.items)) in
  let ledger_dir = Filename.concat dir "replica" in
  prime ();
  (* A workload that needs no primed state (derive-cold, analyze-cli)
     replays every request twice from empty caches, traced then bare, so
     the overhead ratio compares the same requests; a CLI run starts
     with empty caches anyway. The others alternate, even requests bare
     and odd ones traced, so every request still reaches the server
     uncached. Either way drift in the host's speed lands on both sides. *)
  let paired = w.prime = [] in
  let untraced = ref [] and traced = ref [] in
  let children = Array.make (Array.length items) 0. in
  Array.iteri
    (fun i item ->
      let bare () =
        if paired then Tpan.Artifact.reset_caches ();
        let t0 = Proc.now () in
        let r = handle item in
        untraced := (Proc.now () -. t0) :: !untraced;
        if r.Serve.status <> 200 then fail i (Printf.sprintf "answered %d" r.Serve.status)
      in
      let traced () =
        if paired then Tpan.Artifact.reset_caches ();
        cur_req := i;
        (* under a request context of its own, whose trace events are
           drained afterwards the way the server drains each request's *)
        let ctx = Tpan_obs.Context.make () in
        let want =
          Tpan_obs.Context.with_ctx ctx (fun () ->
              span "request" (fun () -> replica ~workload:w.name ~ledger_dir item))
        in
        ignore (Tpan_obs.Trace.take_events ~trace_id:ctx.Tpan_obs.Context.trace_id);
        let r, dt = timed "serve.handle" (fun () -> handle item) in
        cur_req := -1;
        traced := (i, dt) :: !traced;
        if r.Serve.status <> 200 then fail i (Printf.sprintf "answered %d" r.Serve.status)
        else if I.without_trace_id r.Serve.body <> I.without_trace_id want then
          fail i "the layer-by-layer replica and Serve.handle answered differently"
      in
      if paired then begin
        traced ();
        bare ()
      end
      else if i mod 2 = 0 then bare ()
      else traced ())
    items;
  (* direct children of each request span *)
  let req_ids = Hashtbl.create (Array.length items) in
  List.iter (fun s -> if s.name = "request" && s.parent = 0 then Hashtbl.replace req_ids s.id s.req) !spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt req_ids s.parent with
      | Some i -> children.(i) <- children.(i) +. (s.stop -. s.start)
      | None -> ())
    !spans;
  probes ~dir w;
  let handles = List.map snd !traced in
  let sum l = List.fold_left ( +. ) 0. l in
  let us x = x *. 1e6 and ms x = x *. 1e3 in
  let layers =
    [
      ("serve.handle_us", us (median !untraced));
      ("serve.other_us", us (median (List.map (fun (i, h) -> h -. children.(i)) !traced)));
      ("jsonv.decode_us", us (layer "jsonv.decode"));
      ("jsonv.encode_us", us (layer "jsonv.encode"));
      ("models.load_us", us (layer "models.load"));
      ("dsl.parse_us", us (layer "dsl.parse"));
      ("canonical.hash_us", us (layer "canonical.hash"));
      ("ledger.append_us", us (layer "ledger.append"));
      ("artifact.lookup_us", us (layer "artifact.lookup"));
      ("trg.build_ms", ms (layer "trg.build"));
      ("trg.states", layer "trg.states");
      ("trg.states_per_ms", layer "trg.states_per_ms");
      ("oracle.queries", layer "oracle.queries");
      ("oracle.fm_runs", layer "oracle.fm_runs");
      ("oracle.memo_hit_ratio", layer "oracle.memo_hit_ratio");
      ("dg.collapse_ms", ms (layer "dg.collapse"));
      ("dg.nodes", layer "dg.nodes");
      ("rates.solve_ms", ms (layer "rates.solve"));
      ("measures.closed_form_ms", ms (layer "measures.closed_form"));
      ("qeval.small_us", us (layer "qeval.small"));
      ("qeval.abp_ms", ms (layer "qeval.abp"));
      ("qeval.terms", layer "qeval.terms");
      ("sweep.grid_ms", ms (layer "sweep.grid"));
      ("sweep.points", layer "sweep.points");
      ("analysis.compute_ms", ms (layer "analysis.compute"));
      ("trace.coverage", sum (Array.to_list children) /. sum handles);
      ("trace.overhead", (median handles /. median !untraced) -. 1.);
    ]
  in
  { layers; replayed = Array.length items; failures = List.rev !failures }

(* The span log, one JSON object per line: name, start and end in
   microseconds on the monotonic clock, parent span, request index. The
   first write of a run truncates the file; later workloads append. *)
let spans_written = ref false

let write_spans ~workload path =
  let mode = if !spans_written then Open_append else Open_trunc in
  spans_written := true;
  let oc = open_out_gen [ Open_wronly; Open_creat; mode ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("workload", J.Str workload);
                    ("id", J.Int s.id);
                    ("parent", J.Int s.parent);
                    ("name", J.Str s.name);
                    ("root", J.Str s.root);
                    ("req", J.Int s.req);
                    ("start_us", J.Float (s.start *. 1e6));
                    ("end_us", J.Float (s.stop *. 1e6));
                  ]));
          output_char oc '\n')
        (List.rev !spans));
  spans := [];
  Hashtbl.reset samples
