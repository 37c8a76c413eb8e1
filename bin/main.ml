(* tpan — timed Petri net performance analyzer (command-line front end).

   Subcommands: show, reach, analyze, symbolic, simulate, dot.
   Nets come from a .tpn file or from the built-in protocol models. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Reach = Tpan_petri.Reachability
module Cover = Tpan_petri.Coverability
module Inv = Tpan_petri.Invariants
module Lin = Tpan_symbolic.Linexpr
module Rf = Tpan_symbolic.Ratfun
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures
module Sim = Tpan_sim.Simulator
module Obs = Tpan_obs
module J = Tpan_obs.Jsonv

open Cmdliner

(* ----- exit bookkeeping -----

   Every process exit goes through [quit] so the run ledger's at_exit
   writer can record the real exit code. *)

let run_t0 = Unix.gettimeofday ()
let exit_code = ref 0

let quit code =
  exit_code := code;
  Stdlib.exit code

(* ----- error reporting -----

   Every analysis failure is a [Tpan.Error.t] value; the CLI's only jobs
   are the human rendering (historical wording kept) and the stable exit
   code, both owned by the facade. *)

let render_error (e : Tpan.Error.t) =
  match e with
  | Unsupported _ | Io_error _ | Invalid_input _ -> "error: " ^ Tpan.Error.to_string e
  | _ -> Tpan.Error.to_string e

let fail err =
  Printf.eprintf "%s\n" (render_error err);
  (* A deadline abort reports how far the pipeline got before unwinding:
     by now the hot loops' Fun.protect finalizers have flushed their
     metric deltas, so the counters are the true partial totals. *)
  (match err with
   | Tpan.Error.Deadline_exceeded _ ->
     let f = Obs.Dump.snapshot () in
     (match Obs.Dump.progress_summary f with
      | [] -> ()
      | ps ->
        Printf.eprintf "partial progress: %s\n"
          (String.concat ", "
             (List.map (fun (label, v) -> Printf.sprintf "%d %s" v label) ps)))
   | _ -> ());
  Obs.Log.error "run failed"
    ~fields:
      [
        ("error", Obs.Jsonv.Str (Tpan.Error.to_string err));
        ("exit_code", Obs.Jsonv.Int (Tpan.Error.exit_code err));
      ];
  quit (Tpan.Error.exit_code err)

let fail_input msg = fail (Tpan.Error.Invalid_input msg)

let handle_errors f =
  try f () with
  | e ->
    (match Tpan.Error.of_exn e with
     | Some err -> fail err
     | None -> raise e)

let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

(* ----- observability options (shared by every subcommand) ----- *)

let progress_enabled = ref false
let progress_interval_ms = ref 50.

let progress label =
  if !progress_enabled then
    Obs.Progress.stderr_reporter ~interval:(!progress_interval_ms /. 1000.) ~label ()
  else fun (_ : int) -> ()

(* State the flag handlers leave behind for subcommands and the at_exit
   hooks: chosen metrics rendering, the model in use, the last facade
   report (captured through the Analysis hook), the ledger directory. *)

type metrics_format = Fmt_table | Fmt_openmetrics | Fmt_json

let metrics_fmt_opt : metrics_format option ref = ref None
let metrics_all = ref false
let current_model : string option ref = ref None
let current_net_hash : string option ref = ref None
let last_report : Obs.Jsonv.t option ref = ref None
let ledger_where : string option ref = ref None

let () =
  Tpan.Analysis.add_report_hook (fun r ->
      last_report := Some (Tpan.Analysis.report_to_json r))

let metrics_string format ~all =
  match format with
  | Fmt_table ->
    Format.asprintf "@[%a@]@." (fun fmt () -> Obs.Metrics.pp_table ~all fmt ()) ()
  | Fmt_openmetrics -> Obs.Metrics.to_openmetrics ~all ()
  | Fmt_json -> Obs.Jsonv.to_string_hum (Obs.Metrics.to_json ~all ()) ^ "\n"

let write_ledger () =
  match !ledger_where with
  | None -> ()
  | Some dir ->
    let subcommand =
      if Array.length Sys.argv > 1 && String.length Sys.argv.(1) > 0 && Sys.argv.(1).[0] <> '-'
      then Sys.argv.(1)
      else ""
    in
    let record =
      Obs.Ledger.make ~version:Tpan.Version.string ~timestamp:run_t0 ~subcommand
        ~argv:(Array.to_list Sys.argv)
        ?model:!current_model
        ?trace_id:(Obs.Context.trace_id ())
        ~stages:(Obs.Ledger.stage_totals (Obs.Trace.events ()))
        ~metrics:(Obs.Metrics.to_json ~all:false ())
        ?report:!last_report ~exit_code:!exit_code
        ~duration:(Unix.gettimeofday () -. run_t0)
        ()
    in
    (match Obs.Ledger.append ~dir record with
     | Ok () -> ()
     | Error msg -> Printf.eprintf "warning: cannot write run ledger: %s\n" msg)

let parse_level s =
  match Obs.Log.level_of_string s with
  | Some l -> l
  | None -> fail_input (Printf.sprintf "unknown log level %S (debug, info, warn, error)" s)

(* Durations: "5s", "250ms", "2m", or a bare float (seconds). *)
let parse_duration s =
  let s = String.trim s in
  let fail_dur () =
    fail_input (Printf.sprintf "bad duration %S (use e.g. 5s, 250ms, 2m, or seconds)" s)
  in
  let num str scale =
    match float_of_string_opt str with
    | Some f when f > 0. -> f *. scale
    | _ -> fail_dur ()
  in
  let n = String.length s in
  if n >= 3 && String.sub s (n - 2) 2 = "ms" then num (String.sub s 0 (n - 2)) 0.001
  else if n >= 2 && s.[n - 1] = 's' then num (String.sub s 0 (n - 1)) 1.
  else if n >= 2 && s.[n - 1] = 'm' then num (String.sub s 0 (n - 1)) 60.
  else num s 1.

let default_flight_file () = Filename.concat (Obs.Ledger.default_dir ()) "flight.ndjson"

let obs_setup trace_file metrics m_fmt m_all progress jobs log_level log_file ledger
    ledger_dir deadline watchdog dump progress_interval =
  (match jobs with
   | None -> ()
   | Some 0 -> Tpan_par.Pool.set_default_jobs (Tpan_par.Pool.recommended_jobs ())
   | Some n when n > 0 -> Tpan_par.Pool.set_default_jobs n
   | Some _ -> fail_input "-j expects a non-negative jobs count (0 = auto)");
  progress_enabled := progress;
  progress_interval_ms := (if progress_interval > 0. then progress_interval else 50.);
  metrics_fmt_opt := m_fmt;
  metrics_all := m_all;
  (* Request context: every run gets one, so spans, log records and the
     ledger row share a trace id; --deadline puts a budget on its
     cancellation token, which the Pool re-installs in worker domains. *)
  let deadline_s = Option.map parse_duration deadline in
  let ctx = Obs.Context.make ?deadline:deadline_s () in
  Obs.Context.set (Some ctx);
  (* Flight recorder: with a deadline or watchdog in play, cancellation
     writes a diagnostic dump at the instant of the abort — while every
     domain's span stack is still standing — and SIGUSR1 asks the
     watchdog for a dump of a live run. *)
  let flight_path =
    match dump with
    | Some p -> Some p
    | None ->
      if deadline_s <> None || watchdog <> None then Some (default_flight_file ())
      else None
  in
  (match flight_path with
   | None -> ()
   | Some path ->
     (* Pin the trace id: the hook may fire on the watchdog domain,
        which never had this request's context installed. *)
     let trace_id = ctx.Obs.Context.trace_id in
     Obs.Cancel.set_on_cancel
       (Some
          (fun reason ->
            Obs.Dump.write_dump ~trace_id path (Obs.Cancel.reason_to_string reason))));
  if deadline_s <> None || watchdog <> None then begin
    Obs.Dump.install_sigusr1 ();
    let wd =
      Obs.Dump.start_watchdog ?stall:watchdog ?path:flight_path
        ~token:ctx.Obs.Context.token ()
    in
    at_exit (fun () -> Obs.Dump.stop_watchdog wd)
  end;
  (* --metrics-format implies --metrics *)
  let metrics = metrics || m_fmt <> None in
  if metrics then Obs.Metrics.set_timing true;
  if trace_file <> None then Obs.Trace.set_enabled true;
  (match trace_file with
   | None -> ()
   | Some path ->
     at_exit (fun () ->
         try
           let oc = open_out path in
           Obs.Trace.write_ndjson oc;
           close_out oc
         with Sys_error msg -> Printf.eprintf "warning: cannot write trace: %s\n" msg));
  (* Log sinks: silent unless asked — existing outputs stay byte-stable. *)
  let sinks = ref [] in
  (match log_level with
   | None -> ()
   | Some s -> sinks := (parse_level s, Obs.Log.stderr_sink) :: !sinks);
  (match log_file with
   | None -> ()
   | Some path ->
     (match open_out path with
      | oc ->
        at_exit (fun () -> close_out_noerr oc);
        let lvl = match log_level with Some s -> parse_level s | None -> Obs.Log.Info in
        sinks := (lvl, Obs.Log.ndjson_sink oc) :: !sinks
      | exception Sys_error msg -> Printf.eprintf "warning: cannot open log file: %s\n" msg));
  if !sinks <> [] then Obs.Log.set_sinks !sinks;
  (* Run ledger: --ledger, or TPAN_LEDGER=1 in the environment. *)
  let ledger =
    ledger
    || (match Sys.getenv_opt "TPAN_LEDGER" with
        | None | Some "" | Some "0" -> false
        | Some _ -> true)
    || ledger_dir <> None
  in
  if ledger then begin
    ledger_where :=
      Some (match ledger_dir with Some d -> d | None -> Obs.Ledger.default_dir ());
    Obs.Trace.set_enabled true;
    (* per-stage timings come from the spans *)
    at_exit write_ledger
  end;
  if metrics then
    at_exit (fun () ->
        let fmt = match !metrics_fmt_opt with Some f -> f | None -> Fmt_table in
        prerr_string (metrics_string fmt ~all:!metrics_all))

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the span log as NDJSON (Chrome-trace events, one per line) to $(docv) on exit.")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print the metrics table to stderr on exit.")
  in
  let metrics_format_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("table", Fmt_table);
                  ("openmetrics", Fmt_openmetrics);
                  ("json", Fmt_json);
                ]))
          None
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Metrics rendering: $(b,table), $(b,openmetrics) or $(b,json). Implies \
             $(b,--metrics).")
  in
  let metrics_all_arg =
    Arg.(
      value & flag
      & info [ "metrics-all" ]
          ~doc:"Include never-observed histograms (count 0) in metrics output.")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ] ~doc:"Report exploration progress to stderr.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel work (sweeps, replicated simulation). 0 picks the \
             machine's recommended count. Results are identical for any value; default 1.")
  in
  let log_level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Print structured log records at $(docv) (debug, info, warn, error) and above \
             to stderr. Silent when absent.")
  in
  let log_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"FILE"
          ~doc:
            "Also write log records as NDJSON to $(docv) (at --log-level, or info when \
             only this flag is given).")
  in
  let ledger_arg =
    Arg.(
      value & flag
      & info [ "ledger" ]
          ~doc:
            "Append a run record (subcommand, timings, metrics, exit code) to the run \
             ledger ($(b,.tpan/runs.ndjson), or \\$TPAN_DIR). Also enabled by \
             \\$TPAN_LEDGER=1. Query with $(b,tpan runs).")
  in
  let ledger_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger-dir" ] ~docv:"DIR"
          ~doc:"Ledger directory (implies $(b,--ledger)); default $(b,.tpan) or \\$TPAN_DIR.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "deadline" ] ~docv:"DUR"
          ~doc:
            "Abort the analysis after $(docv) (e.g. $(b,5s), $(b,250ms), $(b,2m)) with \
             exit code 6, a partial-progress report and a diagnostic dump. Checked \
             cooperatively at cheap checkpoints in every hot loop, across all -j worker \
             domains.")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt ~vopt:(Some 30.) (some float) None
      & info [ "watchdog" ] ~docv:"SECS"
          ~doc:
            "Run a watchdog domain: dump diagnostics when no checkpoint progress happens \
             for $(docv) seconds (default 30 when the flag is given bare, as \
             $(b,--watchdog) or $(b,--watchdog=SECS)), on SIGUSR1, and when a --deadline \
             passes while a loop is wedged between checkpoints.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:
            "Flight-recorder file for diagnostic dumps and the watchdog's periodic \
             frames (NDJSON; view with $(b,tpan top)). Default \
             $(b,.tpan/flight.ndjson) when --deadline or --watchdog is active.")
  in
  let progress_interval_arg =
    Arg.(
      value
      & opt float 50.
      & info [ "progress-interval" ] ~docv:"MS"
          ~doc:"Minimum milliseconds between --progress reports (default 50).")
  in
  Term.(
    const obs_setup $ trace_arg $ metrics_arg $ metrics_format_arg $ metrics_all_arg
    $ progress_arg $ jobs_arg $ log_level_arg $ log_file_arg $ ledger_arg $ ledger_dir_arg
    $ deadline_arg $ watchdog_arg $ dump_arg $ progress_interval_arg)

(* ----- common options ----- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.tpn" ~doc:"Net description file.")

let model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "m"; "model" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Built-in model (%s)." (String.concat ", " Tpan.Models.names)))

let max_states_arg =
  Arg.(value & opt int 100_000 & info [ "max-states" ] ~docv:"N" ~doc:"State budget.")

(* The net a subcommand names: a .tpn file or a builtin model. *)
let query_net file model =
  match (file, model) with
  | Some f, None -> Tpan.Query.File f
  | None, Some name ->
    current_model := Some name;
    Tpan.Query.Model { name; params = [] }
  | Some _, Some _ -> fail_input "give either a file or --model, not both"
  | None, None -> fail_input "give a .tpn file or --model NAME"

let with_net file model k =
  handle_errors (fun () ->
      match Tpan.Query.load (query_net file model) with
      | Ok tpn -> k tpn
      | Error e -> fail e)

(* The artifact-backed subcommands canonicalize first: the content hash
   keys the artifact cache and lands in every schema-2 envelope. *)
let canonicalize tpn =
  let c = Tpan.Canonical.of_tpn tpn in
  current_net_hash := Some (Tpan.Canonical.hash c);
  c

let with_canonical file model k = with_net file model (fun tpn -> k (canonicalize tpn))

(* ----- machine output -----

   Every --json document is wrapped in the one schema-2 envelope. *)

let print_json doc = print_endline (Obs.Jsonv.to_string_hum doc)

let print_doc ~kind fields =
  print_json (Tpan.Query.envelope ~kind ~net_hash:!current_net_hash ~exit_code:0 fields)

(* Run a query the way the server runs a request body, and print its
   answer: --json prints the envelope the server answers; a sweep table
   also renders as text or CSV. A failure exits with its code. *)
let answer ?(csv = false) ~json query =
  let net_hash, outcome = Tpan.Query.run query in
  current_net_hash := net_hash;
  match outcome with
  | Error e -> fail e
  | Ok (Tpan.Query.Table t) when not json ->
    if csv then print_string (Tpan_perf.Sweep.to_csv t)
    else Format.printf "%a@?" Tpan_perf.Sweep.pp t
  | Ok _ as outcome -> print_json (Tpan.Query.to_json ~net_hash outcome)

(* ----- show ----- *)

let show_cmd =
  let run () file model =
    with_net file model (fun tpn ->
        print_string (Tpan_dsl.Printer.to_string tpn);
        let net = Tpn.net tpn in
        Printf.printf "\n# %d places, %d transitions, %d conflict sets\n" (Net.num_places net)
          (Net.num_transitions net)
          (Array.length (Tpn.conflict_sets tpn));
        Array.iteri
          (fun i ts ->
            if List.length ts > 1 then
              Printf.printf "# conflict set %d: {%s}\n" i
                (String.concat ", " (List.map (Net.trans_name net) ts)))
          (Tpn.conflict_sets tpn))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the net, its timing table and conflict sets.")
    Term.(const run $ obs_term $ file_arg $ model_arg)

(* ----- reach (untimed analysis) ----- *)

let reach_cmd =
  let run () file model max_states =
    with_net file model (fun tpn ->
        let net = Tpn.net tpn in
        let tree = Cover.build ~max_nodes:max_states ~on_progress:(progress "coverability") net in
        if Cover.is_bounded tree then begin
          let g = Reach.explore ~max_states ~on_progress:(progress "reachability") net in
          Printf.printf "bounded: yes\nstates: %d\nedges: %d\ndeadlocks: %d\nsafe: %b\n"
            (Reach.num_states g) (Reach.num_edges g)
            (List.length (Reach.deadlocks g))
            (Reach.is_safe g)
        end
        else begin
          Printf.printf "bounded: no\nunbounded places: %s\n"
            (String.concat ", "
               (List.map (Net.place_name net) (Cover.unbounded_places tree)));
          Printf.printf "(timed semantics may still be bounded: see 'analyze')\n"
        end;
        let pinvs = Inv.p_invariants net in
        Printf.printf "p-invariants: %d\n" (List.length pinvs);
        List.iter
          (fun y -> Format.printf "  %a = %d@." (Inv.pp_p_invariant net) y
              (Inv.invariant_value y (Net.initial_marking net)))
          pinvs;
        let tinvs = Inv.t_invariants net in
        Printf.printf "t-invariants: %d\n" (List.length tinvs);
        List.iter (fun x -> Format.printf "  %a@." (Inv.pp_t_invariant net) x) tinvs)
  in
  Cmd.v
    (Cmd.info "reach" ~doc:"Untimed analysis: boundedness, reachability, invariants.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg)

(* ----- analyze (concrete) ----- *)

let throughput_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "t"; "throughput" ] ~docv:"TRANS"
        ~doc:"Report the completion rate of this transition (repeatable).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit a versioned JSON document (\"schema\": 2, with $(b,trace_id), \
           $(b,net_hash) and $(b,exit_code)) instead of the human report.")

let analyze_cmd =
  let run () file model max_states throughputs json =
    if json then
      handle_errors (fun () ->
          answer ~json
            (Tpan.Query.Analyze
               { net = query_net file model; max_states = Some max_states; throughputs }))
    else
    with_net file model (fun tpn ->
        let g = CG.build ~max_states ~on_progress:(progress "TRG") tpn in
        Format.printf "timed reachability graph: %d states, %d edges@." (CG.Graph.num_states g)
          (CG.Graph.num_edges g);
        let res = M.Concrete.analyze g in
        Format.printf "%a@."
          (DG.pp ~pp_delay:(Q.pp_decimal ~digits:6) ~pp_prob:(Q.pp_decimal ~digits:6))
          res.Rates.dg;
        Format.printf "mean cycle time: %s@." (qf res.Rates.total_weight);
        List.iter
          (fun name ->
            let thr = M.Concrete.throughput res g name in
            Format.printf "throughput(%s): %s per time unit (period %s)@." name (qf thr)
              (if Q.is_zero thr then "inf" else qf (Q.inv thr)))
          throughputs;
        Format.print_flush ())
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Concrete timed analysis: TRG, decision graph, throughput.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg $ throughput_arg $ json_arg)

(* ----- symbolic ----- *)

let symbolic_cmd =
  let run () file model max_states throughputs point =
    with_net file model (fun tpn ->
        let g = SG.build ~max_states ~on_progress:(progress "symbolic TRG") tpn in
        Format.printf "symbolic timed reachability graph: %d states, %d edges@."
          (SG.Graph.num_states g) (SG.Graph.num_edges g);
        let audit = SG.constraint_audit g in
        if audit <> [] then begin
          Format.printf "constraints used to order minima (cf. paper Figure 7):@.";
          List.iter
            (fun (s, d, labels) ->
              Format.printf "  %d -> %d: %s@." (s + 1) (d + 1) (String.concat ", " labels))
            audit
        end;
        let res = M.Symbolic.analyze g in
        Format.printf "%a@." (DG.pp ~pp_delay:Lin.pp ~pp_prob:Rf.pp) res.Rates.dg;
        List.iter
          (fun (re : _ Rates.rated_edge) ->
            Format.printf "rate: %a@." Rf.pp re.Rates.rate)
          res.Rates.edge_rate;
        let bindings =
          List.map
            (fun (k, v) -> (k, Q.of_decimal_string v))
            point
        in
        List.iter
          (fun name ->
            let thr = M.Symbolic.throughput res g name in
            Format.printf "throughput(%s) = %a@." name Rf.pp thr;
            if bindings <> [] then begin
              match M.Symbolic.eval_at thr bindings with
              | v -> Format.printf "  at the given point: %s@." (qf v)
              | exception Not_found ->
                Format.printf "  (point incomplete: missing variable bindings)@."
            end)
          throughputs;
        Format.print_flush ())
  in
  let point_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "p"; "point" ] ~docv:"VAR=VALUE"
          ~doc:"Bind a symbol, e.g. -p 'E(t3)=1000' (repeatable); used to evaluate expressions.")
  in
  Cmd.v
    (Cmd.info "symbolic" ~doc:"Symbolic analysis: expressions for rates and throughput.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg $ throughput_arg $ point_arg)

(* ----- simulate ----- *)

let simulate_cmd =
  let run () file model horizon seed runs throughputs point json =
    with_net file model (fun tpn ->
        let horizon = Q.of_decimal_string horizon in
        (* a symbolic net can be simulated once its symbols are bound *)
        let tpn =
          if point = [] then tpn
          else Tpn.bind_times tpn (List.map (fun (k, v) -> (k, Q.of_decimal_string v)) point)
        in
        let c = canonicalize tpn in
        (* Single run: one trajectory. Replications fan the runs out over
           the worker pool ([-j]); the estimate is bit-identical at any
           jobs count — which is what makes the summary cacheable. *)
        match Tpan.Artifact.simulate ~seed ~runs ~horizon ~transitions:throughputs c with
        | Error e -> fail e
        | Ok summary ->
          if json then
            print_doc ~kind:"simulation" (Tpan.Artifact.sim_summary_fields summary)
          else
            List.iter
              (fun (name, stat) ->
                match stat with
                | Tpan.Artifact.Single { mean; deadlocked } ->
                  Printf.printf "throughput(%s): %.6g per time unit%s\n" name mean
                    (if deadlocked then " (deadlocked)" else "")
                | Tpan.Artifact.Estimate { mean; std_error; ci95 = lo, hi; runs } ->
                  Printf.printf
                    "throughput(%s): %.6g +/- %.2g (95%%: [%.6g, %.6g], %d runs)\n" name
                    mean (1.96 *. std_error) lo hi runs)
              summary.Tpan.Artifact.throughputs)
  in
  let horizon_arg =
    Arg.(value & opt string "1000000" & info [ "horizon" ] ~docv:"T" ~doc:"Simulated time span.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let runs_arg = Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"Replications.") in
  let point_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "p"; "point" ] ~docv:"VAR=VALUE"
          ~doc:"Bind a symbolic time/frequency before simulating (repeatable).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte-Carlo simulation of a (possibly bound-symbolic) net.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ horizon_arg $ seed_arg $ runs_arg $ throughput_arg $ point_arg $ json_arg)

(* ----- latency ----- *)

let latency_cmd =
  let run () file model max_states events point =
    with_net file model (fun tpn ->
        let module P = Tpan_perf.Passage in
        if Tpn.is_concrete tpn then begin
          let g = CG.build ~max_states tpn in
          List.iter
            (fun name ->
              match P.concrete_latency g ~event:(P.completion_event tpn name) () with
              | Some h ->
                Format.printf "mean time to first completion of %s: %s@." name (qf h)
              | None -> Format.printf "latency(%s): infinite (event not almost-surely reached)@." name)
            events
        end
        else begin
          let g = SG.build ~max_states tpn in
          let bindings = List.map (fun (k, v) -> (k, Q.of_decimal_string v)) point in
          List.iter
            (fun name ->
              match P.symbolic_latency g ~event:(P.completion_event tpn name) () with
              | Some h ->
                Format.printf "latency(%s) = %a@." name Rf.pp h;
                if bindings <> [] then begin
                  match M.Symbolic.eval_at h bindings with
                  | v -> Format.printf "  at the given point: %s@." (qf v)
                  | exception Not_found -> Format.printf "  (point incomplete)@."
                end
              | None -> Format.printf "latency(%s): infinite@." name)
            events
        end;
        Format.print_flush ())
  in
  let event_arg =
    Arg.(
      value & opt_all string []
      & info [ "e"; "event" ] ~docv:"TRANS" ~doc:"Completion event of interest (repeatable).")
  in
  let point_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "p"; "point" ] ~docv:"VAR=VALUE" ~doc:"Bind a symbol for evaluation (repeatable).")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Mean first-passage time to a transition's completion.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg $ event_arg $ point_arg)

(* ----- sweep ----- *)

(* A builtin with parameters rebuilds its net at every grid point; any
   other net evaluates its closed form, derived once (see
   {!Tpan.Query.run}). Either way the grid is row-major and results land
   in input order, so the table (and its CSV/JSON renderings) is
   byte-identical for any -j. *)
let sweep_cmd =
  let module Sweep = Tpan_perf.Sweep in
  let run () file model max_states transitions vary point csv json =
    handle_errors @@ fun () ->
    let axes =
      List.map
        (fun spec ->
          match Sweep.parse_axis spec with Ok a -> a | Error msg -> fail_input msg)
        vary
    in
    if axes = [] then fail_input "give at least one --vary NAME=LO..HI:STEPS";
    let bindings = List.map (fun (k, v) -> (k, Q.of_decimal_string v)) point in
    answer ~csv ~json
      (Tpan.Query.Sweep
         {
           net = query_net file model;
           max_states = Some max_states;
           transitions;
           bindings;
           axes;
           jobs = None;
         })
  in
  let trans_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "t"; "throughput" ] ~docv:"TRANS"
          ~doc:
            "Transition whose completion rate to tabulate (repeatable; defaults to the \
             model's delivery transitions).")
  in
  let vary_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "vary" ] ~docv:"NAME=LO..HI:STEPS"
          ~doc:
            "Sweep axis, e.g. --vary timeout=80..200:8 (repeatable; several axes form \
             their cartesian grid). For a concrete model NAME is a parameter; for a \
             symbolic net it is a symbol such as 'E(t3)'.")
  in
  let point_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "p"; "point" ] ~docv:"VAR=VALUE"
          ~doc:"Fix the non-swept symbols of a symbolic net (repeatable).")
  in
  let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Tabulate throughput over a parameter grid, in parallel (-j); identical output \
          for any jobs count.")
    Term.(
      const run $ obs_term $ file_arg $ model_arg $ max_states_arg $ trans_arg $ vary_arg
      $ point_arg $ csv_arg $ json_arg)

(* ----- check ----- *)

let check_static max_states tpn =
        let net = Tpn.net tpn in
        Format.printf "net class: %a@." Tpan_petri.Classify.pp (Tpan_petri.Classify.classify net);
        let consistent = Tpan_symbolic.Constraints.is_consistent (Tpn.constraints tpn) in
        Format.printf "timing constraints: %s@."
          (if consistent then "consistent" else "INCONSISTENT");
        (match Tpan_petri.Siphons.unmarked_siphons net with
         | [] -> Format.printf "siphons: none initially empty@."
         | l ->
           List.iter
             (fun s ->
               Format.printf "WARNING: initially-empty siphon {%s} (its consumers are dead)@."
                 (String.concat ", " (List.map (Net.place_name net) s)))
             l);
        if Tpan_petri.Siphons.commoner_satisfied net then
          Format.printf "commoner: every minimal siphon holds a marked trap@."
        else
          Format.printf
            "commoner: some siphon lacks a marked trap (possible deadlock; decisive only for free-choice nets)@.";
        if Tpn.is_concrete tpn then begin
          match CG.build ~max_states tpn with
          | g ->
            let safe =
              Array.for_all
                (fun st -> Array.for_all (fun k -> k <= 1) st.Sem.marking)
                g.Sem.states
            in
            Format.printf "timed behaviour: %d states, %s, %d terminal state(s)@."
              (CG.Graph.num_states g)
              (if safe then "safe (1-bounded)" else "NOT safe")
              (List.length (CG.Graph.terminal_states g))
          | exception Tpn.Unsupported msg -> Format.printf "timed behaviour: UNSUPPORTED (%s)@." msg
        end
        else begin
          match SG.build ~max_states tpn with
          | g -> Format.printf "symbolic behaviour: %d states, constraints sufficient@."
                   (SG.Graph.num_states g)
          | exception SG.Insufficient { hint; _ } ->
            Format.printf "symbolic behaviour: INSUFFICIENT CONSTRAINTS — %s@." hint
        end;
        Format.print_flush ()

let check_cmd =
  let module CK = Tpan.Checker.Check in
  let module GN = Tpan.Checker.Gen in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Three-way differential check: the closed-form throughput, the floating-point \
             Markov solution and Monte-Carlo simulation must agree at sampled points of \
             the constraint region.")
  in
  let random_arg =
    Arg.(
      value & opt int 0
      & info [ "random" ] ~docv:"N"
          ~doc:
            "Fuzz the pipeline: generate $(docv) random stop-and-wait-family nets and \
             differentially check each (no file/--model).")
  in
  let samples_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"N" ~doc:"Constraint-region points per symbolic net.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Master seed for net generation, point sampling and simulation.")
  in
  let runs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "runs" ] ~docv:"N" ~doc:"Simulation replications per point.")
  in
  let delivery_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "delivery" ] ~docv:"TRANS"
          ~doc:
            "Transition whose completion rate is compared (default: the model registry's \
             delivery, or the zero-frequency-conflict heuristic).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced sample/replication counts (the CI tier-2 gate).")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "reproducer" ] ~docv:"FILE"
          ~doc:"On disagreement, write the minimized reproducer snippet(s) to $(docv).")
  in
  let write_reproducers repro outcomes =
    match repro with
    | None -> ()
    | Some path ->
      let snippets =
        List.concat_map
          (fun (o : CK.outcome) -> List.map (fun f -> f.CK.reproducer) o.CK.failures)
          outcomes
      in
      if snippets <> [] then begin
        let oc = open_out path in
        output_string oc (String.concat "\n" snippets);
        close_out oc
      end
  in
  let config_of max_states samples seed runs quick =
    let c = { CK.default with CK.seed; max_states = Some max_states } in
    let c = match samples with Some s -> { c with CK.samples = s } | None -> c in
    let c = match runs with Some r -> { c with CK.runs = r } | None -> c in
    if quick then CK.quick c else c
  in
  let run () file model max_states diff random samples seed runs delivery quick json repro
      =
    let config = config_of max_states samples seed runs quick in
    if random > 0 then begin
      if file <> None || model <> None then
        fail_input "--random generates its own nets; drop the file/--model";
      handle_errors (fun () ->
          (* Under --deadline, the budget applies per generated case, not to
             the whole fuzz run: a pathological net aborts at its next
             checkpoint and is recorded, and the remaining cases proceed.
             Re-scope the ambient context to one without a deadline (same
             trace id) so the global token can't kill the driver loop. *)
          let case_budget = Option.bind (Obs.Context.token ()) Obs.Cancel.budget in
          let config = { config with CK.deadline = case_budget } in
          let fuzz_ctx = Obs.Context.make ?trace_id:(Obs.Context.trace_id ()) () in
          let results =
            Obs.Context.with_ctx fuzz_ctx (fun () -> CK.fuzz ~config ~cases:random ())
          in
          let outcomes = List.filter_map (fun (_, r) -> Result.to_option r) results in
          let errored =
            List.filter_map
              (fun (c, r) -> match r with Error e -> Some (c, e) | Ok _ -> None)
              results
          in
          let timeouts, errors =
            List.partition
              (fun (_, e) ->
                match e with Tpan.Error.Deadline_exceeded _ -> true | _ -> false)
              errored
          in
          let failed = List.filter (fun o -> not (CK.ok o)) outcomes in
          let summary_fields =
              [
                ("cases", Obs.Jsonv.Int random);
                ("seed", Obs.Jsonv.Int seed);
                ("disagreeing", Obs.Jsonv.Int (List.length failed));
                ("errored", Obs.Jsonv.Int (List.length errors));
                ("timed_out", Obs.Jsonv.Int (List.length timeouts));
                ( "outcomes",
                  Obs.Jsonv.List (List.map CK.outcome_to_json outcomes) );
                ( "errors",
                  Obs.Jsonv.List
                    (List.map
                       (fun ((c : GN.case), e) ->
                         Obs.Jsonv.Obj
                           [
                             ("case", Obs.Jsonv.Str (Printf.sprintf "gen%d" c.GN.seed));
                             ("error", Obs.Jsonv.Str (Tpan.Error.to_string e));
                           ])
                       errored) );
              ]
          in
          let summary =
            Obs.Jsonv.Obj
              (("schema", Obs.Jsonv.Int 1)
              :: ("kind", Obs.Jsonv.Str "check-fuzz")
              :: summary_fields)
          in
          last_report := Some summary;
          write_reproducers repro outcomes;
          if json then
            print_doc ~kind:"check-fuzz" summary_fields
          else begin
            List.iter
              (fun ((c : GN.case), r) ->
                match r with
                | Ok o -> Format.printf "%a  [%s]@." CK.pp_outcome o c.GN.description
                | Error e ->
                  Format.printf "gen%d: ERROR %s  [%s]@." c.GN.seed
                    (Tpan.Error.to_string e) c.GN.description)
              results;
            Format.printf "fuzz: %d cases, %d disagreeing, %d errored, %d timed out@."
              random (List.length failed) (List.length errors) (List.length timeouts)
          end;
          (* Timed-out cases are skipped, not failures: fuzzing over random
             nets must survive the occasional pathological case. *)
          if failed <> [] || errors <> [] then quit 1)
    end
    else if diff then
      handle_errors (fun () ->
          (* canonicalize up front so the schema-2 envelope names the net *)
          (match Tpan.Query.load (query_net file model) with
           | Ok tpn -> ignore (canonicalize tpn)
           | Error _ -> ());
          match Tpan.Checker.check_source ~config ?delivery (query_net file model) with
          | Error e -> fail e
          | Ok o ->
            let doc = CK.outcome_to_json o in
            last_report := Some doc;
            write_reproducers repro [ o ];
            if json then print_doc ~kind:"check" (CK.outcome_fields o)
            else Format.printf "%a@." CK.pp_outcome o;
            if not (CK.ok o) then quit 1)
    else with_net file model (check_static max_states)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a model: net class, constraints, siphons, timed safety. With \
          $(b,--diff) or $(b,--random), run the three-way differential checker \
          (exact = numeric = simulated throughput).")
    Term.(
      const run $ obs_term $ file_arg $ model_arg $ max_states_arg $ diff_arg $ random_arg
      $ samples_arg $ seed_arg $ runs_arg $ delivery_arg $ quick_arg $ json_arg $ repro_arg)

(* ----- report ----- *)

let report_cmd =
  let run () file model max_states events =
    with_net file model (fun tpn ->
        if Tpn.is_concrete tpn then
          Tpan_perf.Report.concrete ~max_states ~events Format.std_formatter tpn
        else Tpan_perf.Report.symbolic ~max_states ~events Format.std_formatter tpn;
        Format.print_flush ())
  in
  let event_arg =
    Arg.(
      value & opt_all string []
      & info [ "e"; "event" ] ~docv:"TRANS"
          ~doc:"Also report the first-passage latency to this transition's completion.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Full analysis report: structure, invariants, siphons, steady state, latencies.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg $ event_arg)

(* ----- profile ----- *)

let profile_cmd =
  let run () file model max_states =
    with_net file model (fun tpn ->
        Obs.Trace.set_enabled true;
        let concrete = Tpn.is_concrete tpn in
        (* Run the full analyze pipeline; a net without a steady state still
           yields a breakdown of the stages that did run. *)
        let states, edges, note =
          if concrete then begin
            let g = CG.build ~max_states ~on_progress:(progress "TRG build") tpn in
            let note =
              match M.Concrete.analyze g with
              | (_ : M.Concrete.result) -> None
              | exception Rates.Unsolvable msg -> Some msg
            in
            (CG.Graph.num_states g, CG.Graph.num_edges g, note)
          end
          else begin
            let g = SG.build ~max_states ~on_progress:(progress "TRG build") tpn in
            let note =
              match M.Symbolic.analyze g with
              | (_ : M.Symbolic.result) -> None
              | exception Rates.Unsolvable msg -> Some msg
            in
            (SG.Graph.num_states g, SG.Graph.num_edges g, note)
          end
        in
        let ms name = Obs.Trace.total_duration name *. 1000. in
        let cnt = Obs.Metrics.counter_value in
        let gauge name =
          match Obs.Metrics.find name with Some (Obs.Metrics.Gauge_v v) -> int_of_float v | _ -> 0
        in
        Printf.printf "profile (%s pipeline, %d states, %d edges)\n\n"
          (if concrete then "concrete" else "symbolic")
          states edges;
        Printf.printf "%-26s %12s  %s\n" "stage" "time (ms)" "counters";
        Printf.printf "%-26s %12.3f  states=%d edges=%d frontier_peak=%d\n" "TRG build"
          (ms (if concrete then "concrete.build" else "symbolic.build"))
          (cnt "core.semantics.states_interned")
          (cnt "core.semantics.edges")
          (gauge "core.semantics.frontier_peak");
        Printf.printf "%-26s %12s  queries=%d trivial=%d memo_hits=%d witness_refutations=%d\n"
          "oracle queries" "-"
          (cnt "symbolic.oracle.queries")
          (cnt "symbolic.oracle.trivial")
          (cnt "symbolic.oracle.memo_hits")
          (cnt "symbolic.oracle.witness_refutations");
        Printf.printf "%-26s %12s  eliminations=%d constraints_pruned=%d feasible_checks=%d\n"
          "FM eliminations" "-"
          (cnt "mathkit.fm.eliminations")
          (cnt "mathkit.fm.constraints_pruned")
          (cnt "mathkit.fm.feasible_checks");
        Printf.printf "%-26s %12.3f  nodes=%d edges=%d states_collapsed=%d\n"
          "decision-graph collapse"
          (ms "decision_graph.collapse")
          (cnt "perf.decision_graph.nodes")
          (cnt "perf.decision_graph.edges")
          (cnt "perf.decision_graph.states_collapsed");
        Printf.printf "%-26s %12.3f  solves=%d\n" "rate solve" (ms "rates.solve")
          (cnt "perf.rates.solves");
        Printf.printf "%-26s %12s  poly=%d ratfun=%d\n" "hash-consing (this domain)" "-"
          (Tpan_symbolic.Poly.interned ())
          (Tpan_symbolic.Ratfun.interned ());
        (match Obs.Metrics.find "par.pool.worker_minor_words" with
        | Some (Obs.Metrics.Histogram_v { count; sum; max; _ }) when count > 0 ->
          let major =
            match Obs.Metrics.find "par.pool.worker_major_words" with
            | Some (Obs.Metrics.Histogram_v h) -> h.sum
            | _ -> 0.
          in
          Printf.printf "%-26s %12s  workers=%d minor_words=%.3e (max %.3e) major_words=%.3e\n"
            "worker allocation" "-" count sum max major
        | _ -> ());
        (match note with
         | Some msg -> Printf.printf "\nnote: steady-state analysis stopped early: %s\n" msg
         | None -> ());
        Printf.printf "\nspan tree:\n";
        Format.printf "%a@." Obs.Trace.pp_tree ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the full analyze pipeline and print a per-stage time/count breakdown.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg)

(* ----- dot ----- *)

let dot_cmd =
  let run () file model what max_states =
    with_net file model (fun tpn ->
        match what with
        | "net" -> print_string (Tpan_petri.Dot.net_to_dot (Tpn.net tpn))
        | "trg" -> print_string (CG.to_dot (CG.build ~max_states tpn))
        | "strg" -> print_string (SG.to_dot (SG.build ~max_states tpn))
        | "reach" ->
          print_string
            (Tpan_petri.Dot.reachability_to_dot (Reach.explore ~max_states (Tpn.net tpn)))
        | "dg" ->
          let g = CG.build ~max_states tpn in
          let dg = DG.of_graph ~add:Q.add ~mul:Q.mul g in
          print_string
            (DG.to_dot ~pp_delay:(Q.pp_decimal ~digits:6) ~pp_prob:(Q.pp_decimal ~digits:6) dg)
        | other ->
          Printf.eprintf "unknown graph %S (net, trg, strg, reach, dg)\n" other;
          quit 2)
  in
  let what_arg =
    Arg.(
      value & opt string "net"
      & info [ "g"; "graph" ] ~docv:"KIND" ~doc:"Which graph: net, trg, strg, reach or dg (decision graph).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz DOT for the net or its graphs.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ what_arg $ max_states_arg)

(* ----- metrics ----- *)

let metrics_cmd =
  let run () file model max_states =
    (* With a net given, run the facade pipeline first so the registry
       holds that run's numbers; bare [tpan metrics] exposes whatever the
       registry holds at startup (registered metrics, zero values). *)
    (match (file, model) with
     | None, None -> ()
     | _ ->
       Obs.Metrics.set_timing true;
       with_canonical file model (fun c ->
           match Tpan.Artifact.analysis ~max_states c with
           | Ok _ -> ()
           | Error e -> fail e));
    let format = match !metrics_fmt_opt with Some f -> f | None -> Fmt_openmetrics in
    print_string (metrics_string format ~all:!metrics_all)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Print the metrics registry to stdout — OpenMetrics text by default \
          (--metrics-format picks table or json). With a net, analyze it first so the \
          metrics describe that run.")
    Term.(const run $ obs_term $ file_arg $ model_arg $ max_states_arg)

(* ----- runs (ledger query) ----- *)

let runs_cmd =
  let run () last json stats dir =
    let dir = match dir with Some d -> d | None -> Obs.Ledger.default_dir () in
    match Obs.Ledger.load ~dir () with
    | Error msg -> fail (Tpan.Error.Io_error msg)
    | Ok records when stats ->
      let s = Obs.Ledger.stats records in
      if json then print_json (Obs.Ledger.stats_to_json s)
      else Format.printf "%a@?" Obs.Ledger.pp_stats s
    | Ok records ->
      let shown =
        match last with
        | Some n when n >= 0 ->
          let total = List.length records in
          if total <= n then records else List.filteri (fun i _ -> i >= total - n) records
        | _ -> records
      in
      if json then print_json (Obs.Jsonv.List (List.map Obs.Ledger.to_json shown))
      else begin
        Printf.printf "%-19s  %-8s  %-10s  %4s  %9s  %s\n" "when" "version" "subcommand"
          "exit" "time (s)" "model";
        List.iter
          (fun (r : Obs.Ledger.record) ->
            let tm = Unix.localtime r.Obs.Ledger.timestamp in
            Printf.printf "%04d-%02d-%02d %02d:%02d:%02d  %-8s  %-10s  %4d  %9.3f  %s\n"
              (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
              tm.Unix.tm_min tm.Unix.tm_sec r.Obs.Ledger.version r.Obs.Ledger.subcommand
              r.Obs.Ledger.exit_code r.Obs.Ledger.duration
              (match r.Obs.Ledger.model with Some m -> m | None -> "-"))
          shown;
        Printf.printf "%d of %d run(s)\n" (List.length shown) (List.length records)
      end
  in
  let last_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N" ~doc:"Show only the N most recent runs.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the records as a JSON array.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Aggregate instead of listing: run counts and p50/p95 wall time per \
             subcommand and per pipeline stage, plus the exit-code breakdown \
             (combines with $(b,--json)).")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Ledger directory; default $(b,.tpan) or \\$TPAN_DIR.")
  in
  Cmd.v
    (Cmd.info "runs" ~doc:"Query the run ledger written by --ledger.")
    Term.(const run $ obs_term $ last_arg $ json_arg $ stats_arg $ dir_arg)

(* ----- bench-diff ----- *)

let bench_diff_cmd =
  let module BD = Obs.Bench_diff in
  let run () base cur warn fail_at warn_only json =
    match (BD.load_file base, BD.load_file cur) with
    | Error msg, _ -> fail (Tpan.Error.Io_error (base ^ ": " ^ msg))
    | _, Error msg -> fail (Tpan.Error.Io_error (cur ^ ": " ^ msg))
    | Ok baseline, Ok current ->
      let report = BD.compare_figures ~warn ~fail:fail_at ~baseline ~current () in
      if json then print_json (BD.report_to_json report)
      else Format.printf "%a@?" BD.pp_report report;
      (match report.BD.worst with
       | BD.Fail_v when not warn_only ->
         Printf.eprintf "bench-diff: regression beyond the %gx fail threshold\n" fail_at;
         quit 1
       | _ -> quit 0)
  in
  let base_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE.json" ~doc:"Stored baseline BENCH_tpan.json.")
  in
  let cur_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT.json" ~doc:"Fresh BENCH_tpan.json to compare.")
  in
  let warn_arg =
    Arg.(
      value
      & opt float BD.default_warn
      & info [ "warn" ] ~docv:"RATIO" ~doc:"Warn threshold on current/baseline ratios.")
  in
  let fail_arg =
    Arg.(
      value
      & opt float BD.default_fail
      & info [ "fail" ] ~docv:"RATIO" ~doc:"Fail threshold on current/baseline ratios.")
  in
  let warn_only_arg =
    Arg.(
      value & flag
      & info [ "warn-only" ] ~doc:"Report regressions but always exit 0 (CI smoke mode).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the comparison as JSON.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_tpan.json documents per figure (wall time and GC major \
          words); exit 1 when any ratio crosses the fail threshold.")
    Term.(
      const run $ obs_term $ base_arg $ cur_arg $ warn_arg $ fail_arg $ warn_only_arg
      $ json_arg)

(* ----- top (flight-recorder viewer) ----- *)

(* --attach: render a running server's /statusz and /tracez instead of
   a flight file. The server answers plain JSON; all shaping happens
   here so the endpoints stay machine-first. *)
let attach_fetch base path =
  let base =
    let n = String.length base in
    if n > 0 && base.[n - 1] = '/' then String.sub base 0 (n - 1) else base
  in
  match Tpan_serve.Client.get (base ^ path) with
  | Ok (200, body) -> (
    match J.of_string body with
    | Ok doc -> Ok doc
    | Error e -> Error (path ^ ": bad JSON: " ^ e))
  | Ok (status, _) -> Error (Printf.sprintf "%s: HTTP %d" path status)
  | Error e -> Error (path ^ ": " ^ e)

let attach_render statusz tracez =
  let str path doc =
    match Option.bind (J.member path doc) J.to_string_opt with
    | Some s -> s
    | None -> "-"
  in
  let num path doc = Option.bind (J.member path doc) J.to_float_opt in
  let int_at path doc =
    match Option.bind (J.member path doc) J.to_int_opt with Some n -> n | None -> 0
  in
  let list_at path doc =
    match Option.bind (J.member path doc) J.to_list_opt with Some l -> l | None -> []
  in
  Printf.printf "tpan serve %s  pid %d  uptime %.1fs\n" (str "version" statusz)
    (int_at "pid" statusz)
    (match num "uptime_s" statusz with Some u -> u | None -> 0.);
  let reqs =
    match J.member "requests" statusz with Some r -> r | None -> J.Obj []
  in
  Printf.printf "requests: %d total, %d errors, %d timeouts, %d in flight\n"
    (int_at "total" reqs) (int_at "errors" reqs) (int_at "timeouts" reqs)
    (int_at "inflight" reqs);
  (match list_at "caches" statusz with
  | [] -> ()
  | caches ->
    Printf.printf "\n%-12s %10s %10s %10s %9s\n" "cache" "hits" "misses" "entries"
      "hit-ratio";
    List.iter
      (fun c ->
        Printf.printf "%-12s %10d %10d %10d %9s\n" (str "kind" c) (int_at "hits" c)
          (int_at "misses" c) (int_at "entries" c)
          (match num "hit_ratio" c with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"))
      caches);
  (match list_at "inflight" statusz with
  | [] -> ()
  | infl ->
    Printf.printf "\nin flight:\n";
    List.iter
      (fun r ->
        Printf.printf "  %-22s %-16s %8.3fs\n" (str "trace_id" r) (str "request" r)
          (match num "age_s" r with Some a -> a | None -> 0.))
      infl);
  (match list_at "methods" tracez with
  | [] -> ()
  | methods ->
    Printf.printf "\ntracez:\n";
    List.iter
      (fun m ->
        let counts =
          List.map
            (fun b -> Printf.sprintf "%s:%d" (str "bucket" b) (int_at "seen" b))
            (list_at "buckets" m)
        in
        let errors =
          match J.member "errors" m with Some e -> int_at "seen" e | None -> 0
        in
        Printf.printf "  %-14s %s errors:%d\n" (str "name" m)
          (String.concat " " counts) errors;
        let slow =
          List.concat_map (fun b -> list_at "entries" b) (list_at "buckets" m)
          |> List.filter (fun e -> J.member "slow" e = Some (J.Bool true))
        in
        List.iter
          (fun e ->
            Printf.printf "    slow %-22s status %d  %.1fms\n" (str "trace_id" e)
              (int_at "status" e)
              (match num "duration_s" e with Some d -> d *. 1000. | None -> 0.))
          slow)
      methods);
  flush stdout

let attach_once url =
  match (attach_fetch url "/statusz", attach_fetch url "/tracez") with
  | Ok statusz, Ok tracez ->
    attach_render statusz tracez;
    Ok ()
  | (Error e, _ | _, Error e) -> Error e

let top_cmd =
  let render f = Format.printf "%a@?" Obs.Dump.pp_frame f in
  let latest frames = List.nth frames (List.length frames - 1) in
  let run () file follow replay interval attach =
    match attach with
    | Some url ->
      let tty = Unix.isatty Unix.stdout in
      let once () =
        match attach_once url with
        | Ok () -> ()
        | Error e -> fail (Tpan.Error.Io_error (url ^ ": " ^ e))
      in
      if follow then
        let rec loop () =
          if tty then print_string "\027[2J\027[H";
          once ();
          Unix.sleepf interval;
          loop ()
        in
        loop ()
      else once ()
    | None ->
    let path = match file with Some p -> p | None -> default_flight_file () in
    if follow then begin
      (* Live view: tail the flight file, re-rendering whenever a frame
         lands. Runs until interrupted. *)
      let tty = Unix.isatty Unix.stdout in
      let rec loop seen =
        let n =
          match Obs.Dump.load path with
          | Error _ | Ok [] ->
            if seen < 0 then Printf.printf "tpan top: waiting for frames in %s\n%!" path;
            0
          | Ok frames ->
            let n = List.length frames in
            if n <> max seen 0 then begin
              if tty then print_string "\027[2J\027[H";
              render (latest frames)
            end;
            n
        in
        Unix.sleepf interval;
        loop n
      in
      loop (-1)
    end
    else
      match Obs.Dump.load path with
      | Error msg -> fail (Tpan.Error.Io_error (path ^ ": " ^ msg))
      | Ok [] -> Printf.printf "tpan top: no frames in %s\n" path
      | Ok frames ->
        if replay then
          List.iteri
            (fun i f ->
              if i > 0 then print_newline ();
              render f)
            frames
        else render (latest frames)
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FLIGHT.ndjson"
          ~doc:"Flight file to view; default $(b,.tpan/flight.ndjson).")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow"; "f" ] ~doc:"Keep watching the file and re-render new frames.")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ] ~doc:"Render every recorded frame in order, not just the last.")
  in
  let interval_arg =
    Arg.(
      value
      & opt float 0.5
      & info [ "interval" ] ~docv:"SECS" ~doc:"Polling interval for --follow.")
  in
  let attach_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "attach" ] ~docv:"URL"
          ~doc:
            "Render a running server's $(b,/statusz) and $(b,/tracez) instead of a \
             flight file (e.g. $(b,http://127.0.0.1:8080)); combine with \
             $(b,--follow) for a live view.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Inspect a running (or finished) analysis from its flight-recorder file: active \
          span stacks per domain, progress counters, heartbeats, GC. Pair with --watchdog \
          on the analysis side; --follow tails live. With --attach, show a running \
          tpan serve instead.")
    Term.(
      const run $ obs_term $ file_arg $ follow_arg $ replay_arg $ interval_arg
      $ attach_arg)

(* ----- serve ----- *)

(* The server owns its flag set instead of [obs_term]: the per-process
   --deadline/--watchdog machinery is wrong for a long-running process —
   here --deadline is a per-request budget, minted into each request's
   context by the handler. *)
let serve_cmd =
  let run host port socket deadline jobs log_level cache_mb cache_dir max_states
      slow_ms flight no_ledger ledger_dir max_requests_per_conn
      idle_timeout max_inflight max_conns warm =
    handle_errors (fun () ->
        (match jobs with
         | None -> ()
         | Some 0 -> Tpan_par.Pool.set_default_jobs (Tpan_par.Pool.recommended_jobs ())
         | Some n when n > 0 -> Tpan_par.Pool.set_default_jobs n
         | Some _ -> fail_input "-j expects a non-negative jobs count (0 = auto)");
        (match log_level with
         | None -> ()
         | Some s -> Obs.Log.set_sinks [ (parse_level s, Obs.Log.stderr_sink) ]);
        (* Per-request span trees feed /tracez and the per-endpoint
           stage breakdown; the retention cap keeps the shared trace
           buffer from growing without bound between requests. *)
        Obs.Trace.set_enabled true;
        Obs.Trace.set_retention 4096;
        Tpan.Artifact.configure
          ?budget_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_mb)
          ?persist_dir:cache_dir ();
        let config =
          {
            Tpan_serve.Serve.host;
            port = (if port < 0 then None else Some port);
            socket_path = socket;
            deadline = Option.map parse_duration deadline;
            max_states = Some max_states;
            slow_ms;
            flight_path = Some (match flight with Some p -> p | None -> default_flight_file ());
            ledger_dir =
              (if no_ledger then None
               else
                 Some (match ledger_dir with Some d -> d | None -> Obs.Ledger.default_dir ()));
            max_requests_per_conn;
            idle_timeout;
            max_inflight;
            max_conns =
              (if max_conns >= 1 then max_conns
               else fail_input "--max-conns expects a positive count");
            warm =
              (match warm with
              | None -> []
              | Some s ->
                List.filter (fun m -> m <> "")
                  (List.map String.trim (String.split_on_char ',' s)));
          }
        in
        Tpan_serve.Serve.run
          ~ready:(fun bound ->
            match bound with
            | Some p -> Printf.printf "tpan serve: listening on http://%s:%d\n%!" host p
            | None -> Printf.printf "tpan serve: listening\n%!")
          config)
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"IP" ~doc:"Address to bind.")
  in
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port ($(b,0) picks an ephemeral one, announced on stdout; $(b,-1) \
                disables TCP, e.g. with --socket).")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Also listen on a Unix-domain socket.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "deadline" ] ~docv:"DUR"
          ~doc:
            "Per-request budget (e.g. $(b,500ms), $(b,5s)): a request that exceeds it is \
             aborted cooperatively and answered with HTTP 504 (exit-code 6 semantics in \
             the envelope).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains for sweeps (0 = auto).")
  in
  let log_level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Print structured log records at $(docv) and above to stderr.")
  in
  let cache_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-budget" ] ~docv:"MIB"
          ~doc:"Artifact-cache byte budget per artifact kind (default 128 MiB).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist artifacts (closed forms, point evaluations, analysis reports) as \
             NDJSON under $(docv) (e.g. $(b,.tpan/cache)); a restarted server replays \
             them and skips the rebuilds.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request threshold: requests at or above $(docv) milliseconds are \
             flagged in /tracez and snapshot a flight-recorder dump scoped to their \
             trace id (see --flight and $(b,tpan top)).")
  in
  let flight_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"PATH"
          ~doc:
            "Where slow-request dump frames land; default $(b,.tpan/flight.ndjson) \
             (or \\$TPAN_DIR/flight.ndjson).")
  in
  let no_ledger_arg =
    Arg.(
      value & flag
      & info [ "no-ledger" ]
          ~doc:"Do not append per-request rows to the run ledger.")
  in
  let ledger_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger-dir" ] ~docv:"DIR"
          ~doc:
            "Run-ledger directory for per-request rows: subcommand \
             $(b,serve:<endpoint>), trace id, stages, exit code, duration, and a \
             $(b,request) object (method, path, status, body and response bytes, \
             net hash, deadline budget consumed), queried by $(b,tpan runs); \
             default $(b,.tpan) or \\$TPAN_DIR.")
  in
  let max_requests_per_conn_arg =
    Arg.(
      value & opt int 1000
      & info
          [ "max-requests-per-conn" ]
          ~docv:"N"
          ~doc:
            "Keep-alive budget: close a connection after serving $(docv) requests \
             ($(b,0) = unlimited).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close a keep-alive connection idle for $(docv) seconds; the same budget \
             bounds reading each whole request, head and body (a stall past it \
             answers 408).")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission limit: at most $(docv) POST analyses compute concurrently, up \
             to twice as many queue, and anything beyond is answered \
             $(b,503 + Retry-After). Introspection endpoints never queue.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 32
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent-connection budget: each accepted connection is served on its \
             own domain, up to $(docv) at once. Beyond it a connection is still \
             answered — inline by the accept loop, one request, then a forced \
             $(b,Connection: close) — so keep-alive clients can never starve new \
             arrivals.")
  in
  let warm_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "warm" ] ~docv:"NET[,NET...]"
          ~doc:
            "Pre-build the named builtin models (analysis reports for concrete models, \
             closed forms for symbolic ones) before announcing ready, so first requests \
             hit a hot cache — with --cache-dir, this also seeds the persisted \
             artifacts.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis service: POST /analyze, /eval, /sweep; GET /metrics, \
          /healthz, /statusz, /tracez. Artifacts are content-addressed and cached, so \
          repeated requests for the same net never rebuild the symbolic reachability \
          graph.")
    Term.(
      const run $ host_arg $ port_arg $ socket_arg $ deadline_arg $ jobs_arg
      $ log_level_arg $ cache_budget_arg $ cache_dir_arg $ max_states_arg
      $ slow_ms_arg $ flight_arg $ no_ledger_arg
      $ ledger_dir_arg $ max_requests_per_conn_arg $ idle_timeout_arg
      $ max_inflight_arg $ max_conns_arg $ warm_arg)

(* ----- version ----- *)

let version_cmd =
  let run () = print_endline Tpan.Version.string in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the build version (also stamped into ledger records).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "tpan" ~version:Tpan.Version.string
      ~doc:"Performance analysis of communication protocols from Timed Petri Net models"
  in
  quit
    (Cmd.eval
       (Cmd.group info
          [
            show_cmd;
            reach_cmd;
            analyze_cmd;
            symbolic_cmd;
            simulate_cmd;
            sweep_cmd;
            latency_cmd;
            check_cmd;
            report_cmd;
            profile_cmd;
            dot_cmd;
            metrics_cmd;
            runs_cmd;
            top_cmd;
            bench_diff_cmd;
            serve_cmd;
            version_cmd;
          ]))
