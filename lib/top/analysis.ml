module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn
module CG = Tpan_core.Concrete
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures
module J = Tpan_obs.Jsonv

type source = File of string | Builtin of string

let load ?(params = []) source =
  Error.guard @@ fun () ->
  match source with
  | File path ->
    if params <> [] then
      invalid_arg "Analysis.load: a File source takes no parameters (edit the file)";
    Tpan_dsl.Parser.parse_file path
  | Builtin name -> (
    match Models.find name with
    | Some m -> m.Models.make params
    | None ->
      invalid_arg
        (Printf.sprintf "unknown model %s (available: %s)" (Error.quote name)
           (String.concat ", " Models.names)))

type report = {
  model : string option;
  states : int;
  edges : int;
  decision_nodes : int;
  mean_cycle_time : Q.t;
  throughputs : (string * Q.t) list;
}

(* Observers of completed analyses: the CLI's run ledger registers one so
   every facade report lands in the run record; tooling can add more.
   Hooks run on the calling domain, after the report is built; a hook
   that raises does not fail the analysis. *)
let report_hooks : (report -> unit) list ref = ref []
let add_report_hook h = report_hooks := h :: !report_hooks

let notify report =
  Tpan_obs.Log.info "analysis complete"
    ~fields:
      [
        ("states", Tpan_obs.Jsonv.Int report.states);
        ("edges", Tpan_obs.Jsonv.Int report.edges);
        ("decision_nodes", Tpan_obs.Jsonv.Int report.decision_nodes);
        ("throughputs", Tpan_obs.Jsonv.Int (List.length report.throughputs));
      ];
  List.iter (fun h -> try h report with _ -> ()) !report_hooks;
  report

let compute ?max_states ?(throughputs = []) tpn =
  Error.guard
  @@ fun () ->
  let g = CG.build ?max_states tpn in
  let res = M.Concrete.analyze g in
  {
    model = None;
    states = CG.Graph.num_states g;
    edges = CG.Graph.num_edges g;
    decision_nodes = List.length res.Rates.dg.DG.nodes;
    mean_cycle_time = M.mean_cycle_time res;
    throughputs = List.map (fun t -> (t, M.Concrete.throughput res g t)) throughputs;
  }

let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

let report_fields r =
  [
    ("model", (match r.model with None -> J.Null | Some m -> J.Str m));
    ("states", J.Int r.states);
    ("edges", J.Int r.edges);
    ("decision_nodes", J.Int r.decision_nodes);
    ("mean_cycle_time", J.Raw (qf r.mean_cycle_time));
    ("throughputs", J.Obj (List.map (fun (t, v) -> (t, J.Raw (qf v))) r.throughputs));
  ]

let report_to_json r =
  J.Obj (("schema", J.Int 1) :: ("kind", J.Str "analysis") :: report_fields r)
