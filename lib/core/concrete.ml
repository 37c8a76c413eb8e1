module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net

module Domain = struct
  type time = Q.t
  type prob = Q.t

  let enabling_time tpn t = Tpn.enabling_q tpn t
  let firing_time tpn t = Tpn.firing_q tpn t
  let zero = Q.zero
  let is_zero = Q.is_zero
  let add = Q.add
  let sub = Q.sub
  let normalize _ q = q

  let compare_time _ a b =
    let c = Q.compare a b in
    if c < 0 then `Lt else if c > 0 then `Gt else `Eq

  let time_equal = Q.equal
  let time_hash = Q.hash
  let pp_time = Q.pp_decimal ~digits:6

  let prob_one = Q.one
  let prob_mul = Q.mul

  let prob_of_choice tpn ~chosen ~among =
    match among with
    | [ _ ] -> Q.one
    | _ ->
      let total = List.fold_left (fun acc t -> Q.add acc (Tpn.frequency_q tpn t)) Q.zero among in
      Q.div (Tpn.frequency_q tpn chosen) total

  let prob_equal = Q.equal
  let pp_prob = Q.pp_decimal ~digits:6
end

module Graph = Semantics.Make (Domain)

let build ?max_states ?on_progress tpn =
  if not (Tpn.is_concrete tpn) then
    raise (Tpn.Unsupported "Concrete.build: net has symbolic times or frequencies");
  Tpan_obs.Trace.with_span "concrete.build" @@ fun sp ->
  let g = Graph.build ?max_states ?on_progress tpn in
  Tpan_obs.Trace.add_attr_int sp "states" (Graph.num_states g);
  Tpan_obs.Trace.add_attr_int sp "edges" (Graph.num_edges g);
  g

let total_delay edges = List.fold_left (fun acc (e : Graph.edge) -> Q.add acc e.delay) Q.zero edges

let to_dot (g : Graph.graph) =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escape s =
    String.concat "" (List.map (fun c -> if c = '"' then "\\\"" else String.make 1 c) (List.init (String.length s) (String.get s)))
  in
  pr "digraph \"%s TRG\" {\n" (escape (Net.name (Tpn.net g.tpn)));
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
            if Q.equal e.prob Q.one then Format.asprintf "%a" Domain.pp_time e.delay
            else Format.asprintf "%a (p=%a)" Domain.pp_time e.delay Domain.pp_prob e.prob
          in
          pr "  s%d -> s%d [label=\"%s\"];\n" e.src e.dst (escape label))
        edges)
    g.out;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
