module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module C = Tpan_symbolic.Constraints
module O = Tpan_symbolic.Oracle

exception Insufficient of { lhs : Lin.t; rhs : Lin.t; hint : string }

module Domain = struct
  type time = Lin.t
  type prob = Rf.t

  let enabling_time tpn t = Tpn.enabling_expr tpn t
  let firing_time tpn t = Tpn.firing_expr tpn t
  let zero = Lin.zero
  let is_zero e = Lin.equal e Lin.zero
  let add = Lin.add
  let sub = Lin.sub

  let normalize tpn e =
    if Lin.is_const e then e
    else if O.entails (Tpn.oracle tpn) `Eq e Lin.zero then Lin.zero
    else e

  let compare_time tpn a b =
    if Lin.equal a b then `Eq
    else
      match O.compare_exprs (Tpn.oracle tpn) a b with
      | C.Lt -> `Lt
      | C.Eq -> `Eq
      | C.Gt -> `Gt
      | C.Unknown ->
        raise (Insufficient { lhs = a; rhs = b; hint = C.suggest a b })

  let time_equal = Lin.equal
  let time_hash = Lin.hash
  let pp_time = Lin.pp

  let prob_one = Rf.one
  let prob_mul = Rf.mul

  let prob_of_choice tpn ~chosen ~among =
    match among with
    | [ _ ] -> Rf.one
    | _ ->
      let total =
        List.fold_left (fun acc t -> Poly.add acc (Tpn.frequency_poly tpn t)) Poly.zero among
      in
      Rf.make (Tpn.frequency_poly tpn chosen) total

  let prob_equal = Rf.equal
  let pp_prob = Rf.pp
end

module Graph = Semantics.Make (Domain)

let build ?max_states ?on_progress tpn =
  Tpan_obs.Trace.with_span "symbolic.build" @@ fun sp ->
  let g = Graph.build ?max_states ?on_progress tpn in
  Tpan_obs.Trace.add_attr_int sp "states" (Graph.num_states g);
  Tpan_obs.Trace.add_attr_int sp "edges" (Graph.num_edges g);
  g

let total_delay edges =
  List.fold_left (fun acc (e : Graph.edge) -> Lin.add acc e.delay) Lin.zero edges

let constraint_audit (g : Graph.graph) =
  let cs = Tpn.constraints g.tpn in
  let audit (e : Graph.edge) =
    let st = g.states.(e.src) in
    let labels =
      List.concat_map
        (fun x ->
          if Lin.equal x Lin.zero || Lin.equal x e.delay then []
          else Option.value ~default:[] (C.justify cs `Le e.delay x))
        (Array.to_list st.ret @ Array.to_list st.rft)
      |> List.sort_uniq String.compare
    in
    if labels = [] then None else Some (e.src, e.dst, labels)
  in
  List.concat
    (List.mapi
       (fun i edges ->
         if g.kinds.(i) = Semantics.Advance then List.filter_map audit edges else [])
       (Array.to_list g.out))

let to_dot (g : Graph.graph) =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escape s =
    String.concat ""
      (List.map (fun c -> if c = '"' then "\\\"" else String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  pr "digraph \"%s symbolic TRG\" {\n" (escape (Net.name (Tpn.net g.tpn)));
  Array.iteri
    (fun i st ->
      let shape =
        match g.kinds.(i) with
        | Semantics.Decision -> "diamond"
        | Semantics.Advance -> "ellipse"
        | Semantics.Terminal -> "doublecircle"
      in
      let label = Format.asprintf "%d: %a" (i + 1) (Graph.pp_state g.tpn) st in
      pr "  s%d [shape=%s, label=\"%s\"];\n" i shape (escape label))
    g.states;
  Array.iter
    (fun edges ->
      List.iter
        (fun (e : Graph.edge) ->
          let label =
            if Rf.equal e.prob Rf.one then Format.asprintf "%a" Lin.pp e.delay
            else Format.asprintf "%a (p=%a)" Lin.pp e.delay Rf.pp e.prob
          in
          pr "  s%d -> s%d [label=\"%s\"];\n" e.src e.dst (escape label))
        edges)
    g.out;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
