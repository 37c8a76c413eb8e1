module Q = Tpan_mathkit.Q
module J = Tpan_obs.Jsonv
module M = Tpan_perf.Measures
module Sweep = Tpan_perf.Sweep

type net =
  | Model of { name : string; params : (string * Q.t) list }
  | Source of string
  | File of string

type t =
  | Analyze of { net : net; max_states : int option; throughputs : string list }
  | Eval of {
      net : net;
      max_states : int option;
      transition : string;
      point : (string * Q.t) list;
    }
  | Sweep of {
      net : net;
      max_states : int option;
      transitions : string list;
      bindings : (string * Q.t) list;
      axes : Sweep.axis list;
      jobs : int option;
    }

type answer = Report of Analysis.report | Value of string * Q.t | Table of Sweep.t

let ( let* ) = Result.bind
let invalid fmt = Printf.ksprintf (fun msg -> Error (Error.Invalid_input msg)) fmt

let load = function
  | Model { name; params } -> Analysis.load ~params (Analysis.Builtin name)
  | File path -> Analysis.load (Analysis.File path)
  | Source src -> Error.guard (fun () -> Tpan_dsl.Parser.parse_string src)

let symbols tpn = List.map Tpan_symbolic.Var.name (Tpan_check.Sampler.vars tpn)
let names kvs = String.concat ", " (List.map fst kvs)

(* A name that is not a symbol of the net would be ignored, and the
   answer would silently be the one at another point. *)
let only_symbols ~what (model : Models.t option) symbols given =
  match List.find_opt (fun n -> not (List.mem n symbols)) given with
  | None -> Ok ()
  | Some n ->
    invalid "%s %s is not a symbol of the net (%s)" what (Error.quote n)
      (match (symbols, model) with
       | [], Some m when m.params <> [] ->
         Printf.sprintf "it has none; model %s takes its parameters in params or on axes: %s"
           m.name (names m.params)
       | [], _ -> "it has none"
       | _ -> "symbols: " ^ String.concat ", " symbols)

let rec closed_forms ?max_states canonical = function
  | [] -> Ok []
  | t :: rest ->
    let* expr = Artifact.closed_form ?max_states canonical ~transition:t in
    let* exprs = closed_forms ?max_states canonical rest in
    Ok (("thr(" ^ t ^ ")", expr) :: exprs)

let sweep ?max_states ?jobs (model : Models.t option) ~params canonical ~transitions
    ~bindings ~axes =
  let axis_names = List.map (fun (a : Sweep.axis) -> a.name) axes in
  let binding_names = List.map fst bindings in
  let symbols = symbols (Canonical.tpn canonical) in
  match model with
  | Some m when m.params <> [] ->
    (* a builtin with parameters: its axes name parameters, and every
       grid point rebuilds the net and runs the exact analysis *)
    let* () =
      match List.find_opt (fun n -> not (List.mem_assoc n m.params)) axis_names with
      | Some n ->
        invalid "model %s has no parameter %s (available: %s)" m.name (Error.quote n)
          (names m.params)
      | None -> Ok ()
    in
    let* () = only_symbols ~what:"binding" model symbols binding_names in
    let throughputs = if transitions = [] then m.deliveries else transitions in
    let make point = m.make (point @ params) in
    Error.guard (fun () -> Table (Sweep.over_tpn ?jobs ?max_states ~make ~throughputs axes))
  | _ ->
    (* any other net: its closed forms, derived once, are evaluated at
       every grid point *)
    let* () =
      if symbols = [] then
        invalid
          "sweeping a concrete net needs a built-in model (--model NAME) so axes can name its \
           parameters; for a .tpn file use its symbolic variant"
      else Ok ()
    in
    let* () = only_symbols ~what:"axis" model symbols axis_names in
    let* () = only_symbols ~what:"binding" model symbols binding_names in
    let* transitions =
      match (transitions, model) with
      | [], Some m -> Ok m.deliveries
      | [], None ->
        invalid "give at least one transition to sweep (only a builtin model has defaults)"
      | ts, _ -> Ok ts
    in
    let* exprs = closed_forms ?max_states canonical transitions in
    let* () = M.Symbolic.bound (List.map snd exprs) (axis_names @ binding_names) in
    Error.guard (fun () -> Table (Sweep.over_expr ?jobs ~bindings ~exprs axes))

let answer ?max_states net canonical q =
  let model = match net with Model { name; _ } -> Models.find name | Source _ | File _ -> None in
  match q with
  | Analyze { throughputs; _ } ->
    (* the cached report is content-addressed and name-free: the name
       comes from the query *)
    let name = Option.map (fun (m : Models.t) -> m.name) model in
    Result.map
      (fun r -> Report { r with Analysis.model = name })
      (Artifact.analysis ?max_states ~throughputs canonical)
  | Eval { transition; point; _ } ->
    let* () =
      only_symbols ~what:"point" model (symbols (Canonical.tpn canonical)) (List.map fst point)
    in
    Result.map
      (fun v -> Value (transition, v))
      (Artifact.eval ?max_states canonical ~transition ~point)
  | Sweep { transitions; bindings; axes; jobs; _ } ->
    let params = match net with Model { params; _ } -> params | Source _ | File _ -> [] in
    sweep ?max_states ?jobs model ~params canonical ~transitions ~bindings ~axes

(* Each parameterless builtin's canonical form, kept after its first
   load, so a warm request finds its net's hash without building the net.
   The table is per domain: a [Tpn.t] holds its oracle as a lazy value
   over unsynchronised memo tables, and two builds of one net at
   different [max_states] may run at once, so a net is only ever used by
   the domain that built it. Only a successful load is kept, so the table
   holds at most the builtins. *)
let builtins : (string, Canonical.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let canonical net =
  let build () = Result.map Canonical.of_tpn (load net) in
  match net with
  | Model { name; params = [] } -> (
    let memo = Domain.DLS.get builtins in
    match Hashtbl.find_opt memo name with
    | Some c -> Ok c
    | None ->
      let c = build () in
      Result.iter (Hashtbl.replace memo name) c;
      c)
  | Model _ | Source _ | File _ -> build ()

let run q =
  let (Analyze { net; max_states; _ } | Eval { net; max_states; _ } | Sweep { net; max_states; _ })
      =
    q
  in
  match canonical net with
  | Error e -> (None, Error e)
  | Ok canonical -> (Some (Canonical.hash canonical), answer ?max_states net canonical q)

let envelope ~kind ~net_hash ~exit_code fields =
  J.Obj
    (("schema", J.Int 2)
    :: ("kind", J.Str kind)
    :: ( "trace_id",
         match Tpan_obs.Context.trace_id () with Some t -> J.Str t | None -> J.Null )
    :: ("net_hash", match net_hash with Some h -> J.Str h | None -> J.Null)
    :: ("exit_code", J.Int exit_code)
    :: fields)

let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

let to_json ~net_hash = function
  | Ok (Report r) -> envelope ~kind:"analysis" ~net_hash ~exit_code:0 (Analysis.report_fields r)
  | Ok (Value (transition, v)) ->
    envelope ~kind:"eval" ~net_hash ~exit_code:0
      [
        ("transition", J.Str transition);
        ("throughput", J.Str (Q.to_string v));
        ("decimal", J.Raw (qf v));
        ("period", J.Str (if Q.is_zero v then "inf" else Q.to_string (Q.inv v)));
      ]
  | Ok (Table t) -> envelope ~kind:"sweep" ~net_hash ~exit_code:0 (Sweep.fields t)
  | Error e ->
    envelope ~kind:"error" ~net_hash ~exit_code:(Error.exit_code e)
      [ ("error", J.Str (Error.to_string e)) ]
