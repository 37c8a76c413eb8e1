module Net = Tpan_petri.Net
module Q = Tpan_mathkit.Q
module Sem = Tpan_core.Semantics
module Tpn = Tpan_core.Tpn
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun

let transition tpn name =
  match Net.trans_of_name (Tpn.net tpn) name with
  | t -> t
  | exception Not_found -> invalid_arg (Printf.sprintf "unknown transition %s" (Tpan_core.Error.quote name))

let times_int field x n =
  let rec go acc n = if n = 0 then acc else go (field.Rates.add acc x) (n - 1) in
  go field.Rates.zero n

(* Every per-unit-time measure divides by the mean cycle time: a
   recurrent cycle that takes no time has none. *)
let per_unit_time (res : _ Rates.result) num =
  match res.Rates.field.Rates.div num res.Rates.total_weight with
  | v -> v
  | exception Division_by_zero ->
    raise (Rates.Unsolvable "the recurrent cycle takes no time (mean cycle time 0)")

let throughput_of_transition (res : _ Rates.result) ~by t =
  let field = res.Rates.field in
  let count (e : _ Decision_graph.dedge) =
    let l = match by with `Fired -> e.fired | `Completed -> e.completed in
    List.length (List.filter (fun x -> x = t) l)
  in
  let num =
    List.fold_left
      (fun acc (re : _ Rates.rated_edge) -> field.Rates.add acc (times_int field re.rate (count re.edge)))
      field.Rates.zero res.Rates.edge_rate
  in
  per_unit_time res num

let edge_time_share (res : _ Rates.result) pred =
  let field = res.Rates.field in
  let num =
    List.fold_left
      (fun acc (re : _ Rates.rated_edge) -> if pred re.edge then field.Rates.add acc re.weight else acc)
      field.Rates.zero res.Rates.edge_rate
  in
  per_unit_time res num

let mean_time_between_visits (res : _ Rates.result) n =
  res.Rates.field.Rates.div res.Rates.total_weight (res.Rates.visit_rate n)

let mean_cycle_time (res : _ Rates.result) = res.Rates.total_weight

(* Delay of the (unique) step a -> b inside a collapsed path. Decision steps
   are instantaneous, so ambiguity among parallel decision edges is
   harmless. *)
let step_delay ~zero (g : _ Sem.graph) a b =
  match g.Sem.out.(a) with
  | [ e ] when e.Sem.dst = b -> e.Sem.delay
  | edges ->
    (match List.find_opt (fun (e : _ Sem.edge) -> e.Sem.dst = b) edges with
     | Some _ -> zero (* decision step: zero delay *)
     | None -> invalid_arg "Measures: path step not found in graph")

module Concrete = struct
  type result = (Q.t, Q.t, Q.t) Rates.result

  let analyze ?normalize_at (g : Tpan_core.Concrete.Graph.graph) : result =
    let dg = Decision_graph.of_graph ~add:Q.add ~mul:Q.mul g in
    Rates.solve ~field:Rates.q_field ~embed_prob:Fun.id ~embed_delay:Fun.id ?normalize_at dg

  let throughput (res : result) (g : Tpan_core.Concrete.Graph.graph) name =
    throughput_of_transition res ~by:`Completed (transition g.Sem.tpn name)

  let utilization (res : result) ~(graph : Tpan_core.Concrete.Graph.graph) pred =
    (* Time is spent only on advance steps; attribute each step's delay to
       the state it leaves. *)
    let num = ref Q.zero in
    List.iter
      (fun (re : _ Rates.rated_edge) ->
        let rec walk = function
          | a :: (b :: _ as rest) ->
            if pred graph.Sem.states.(a) then
              num := Q.add !num (Q.mul re.rate (step_delay ~zero:Q.zero graph a b));
            walk rest
          | [ _ ] | [] -> ()
        in
        walk re.edge.Decision_graph.path)
      res.Rates.edge_rate;
    per_unit_time res !num
end

module Symbolic = struct
  type result = (Lin.t, Rf.t, Rf.t) Rates.result

  let embed_delay e = Rf.of_poly (Poly.of_linexpr e)

  let analyze ?normalize_at (g : Tpan_core.Symbolic.Graph.graph) : result =
    let dg = Decision_graph.of_graph ~add:Lin.add ~mul:Rf.mul g in
    Rates.solve ~field:Rates.ratfun_field ~embed_prob:Fun.id ~embed_delay ?normalize_at dg

  let throughput (res : result) (g : Tpan_core.Symbolic.Graph.graph) name =
    Rf.reduce (throughput_of_transition res ~by:`Completed (transition g.Sem.tpn name))

  let env_of_bindings bindings v =
    match List.assoc_opt (Var.name v) bindings with
    | Some q -> q
    | None -> raise Not_found

  let eval_at rf bindings = Rf.eval (env_of_bindings bindings) rf

  let bound rfs names =
    List.concat_map (fun rf -> Poly.vars (Rf.num rf) @ Poly.vars (Rf.den rf)) rfs
    |> List.filter_map (fun v ->
           let n = Var.name v in
           if List.mem n names then None else Some n)
    |> List.sort_uniq String.compare
    |> function
    | [] -> Ok ()
    | missing ->
      Error
        (Tpan_core.Error.Invalid_input
           (Printf.sprintf "point misses variable bindings: %s" (String.concat ", " missing)))

  (* The one mapping of an evaluation failure to a typed error: /eval and
     every sweep row report the same error for the same point. *)
  let eval rf bindings =
    match eval_at rf bindings with
    | v -> Ok v
    | exception Not_found -> (
      match bound [ rf ] (List.map fst bindings) with
      | Error e -> Error e
      | Ok () -> raise Not_found)
    | exception Division_by_zero ->
      Error (Tpan_core.Error.Unsupported "the throughput denominator vanishes at this point")

  let subst_frequencies rf bindings =
    Rf.subst
      (fun v ->
        match List.assoc_opt (Var.name v) bindings with
        | Some q -> Some (Poly.const q)
        | None -> None)
      rf

  type sensitivity = { var : Var.t; gradient : Q.t; elasticity : Q.t }

  let sensitivities rf ~at =
    let env = env_of_bindings at in
    let value = Rf.eval env rf in
    if Q.is_zero value then raise Division_by_zero;
    let vars =
      List.sort_uniq Var.compare (Poly.vars (Rf.num rf) @ Poly.vars (Rf.den rf))
    in
    let entries =
      List.map
        (fun v ->
          let gradient = Rf.eval env (Rf.derivative v rf) in
          let elasticity = Q.div (Q.mul (env v) gradient) value in
          { var = v; gradient; elasticity })
        vars
    in
    List.sort
      (fun a b -> Q.compare (Q.abs b.elasticity) (Q.abs a.elasticity))
      entries
end
