module Net = Tpan_petri.Net
module Semantics = Tpan_core.Semantics

type target = To of int | Absorbed of int

type ('t, 'p) dedge = {
  src : int;
  dst : target;
  delay : 't;
  prob : 'p;
  path : int list;
  fired : Net.trans list;
  completed : Net.trans list;
}

type ('t, 'p) t = { nodes : int list; edges : ('t, 'p) dedge list }

exception Deterministic_cycle of int list

let m_nodes = Tpan_obs.Metrics.counter "perf.decision_graph.nodes"
let m_edges = Tpan_obs.Metrics.counter "perf.decision_graph.edges"
let m_collapsed = Tpan_obs.Metrics.counter "perf.decision_graph.states_collapsed"

let of_graph ~add ~mul (g : ('t, 'p) Semantics.graph) =
  Tpan_obs.Trace.with_span "decision_graph.collapse" @@ fun sp ->
  let nodes = Semantics.branching_states g in
  let is_decision = Array.make (Array.length g.Semantics.states) false in
  List.iter (fun i -> is_decision.(i) <- true) nodes;
  (* Walk a deterministic chain from the head edge of a decision node until
     the next decision node or a terminal state. *)
  let collapse src (first : ('t, 'p) Semantics.edge) =
    let rec go delay prob fired completed rev_path cur seen =
      Tpan_obs.Cancel.checkpoint ();
      if is_decision.(cur) then
        { src; dst = To cur; delay; prob; path = List.rev (cur :: rev_path);
          fired = List.rev fired; completed = List.rev completed }
      else
        match g.Semantics.out.(cur) with
        | [] ->
          { src; dst = Absorbed cur; delay; prob; path = List.rev (cur :: rev_path);
            fired = List.rev fired; completed = List.rev completed }
        | [ e ] ->
          if List.mem cur seen then raise (Deterministic_cycle (List.rev rev_path));
          go (add delay e.Semantics.delay)
            (mul prob e.Semantics.prob)
            (List.rev_append e.Semantics.fired fired)
            (List.rev_append e.Semantics.completed completed)
            (cur :: rev_path) e.Semantics.dst (cur :: seen)
        | _ -> assert false (* multi-successor states are decision nodes *)
    in
    go first.Semantics.delay first.Semantics.prob
      (List.rev first.Semantics.fired)
      (List.rev first.Semantics.completed)
      [ src ] first.Semantics.dst []
  in
  let edges =
    List.concat_map (fun n -> List.map (collapse n) g.Semantics.out.(n)) nodes
  in
  Tpan_obs.Metrics.Counter.add m_nodes (List.length nodes);
  Tpan_obs.Metrics.Counter.add m_edges (List.length edges);
  Tpan_obs.Metrics.Counter.add m_collapsed
    (max 0 (Array.length g.Semantics.states - List.length nodes));
  Tpan_obs.Trace.add_attr_int sp "nodes" (List.length nodes);
  Tpan_obs.Trace.add_attr_int sp "edges" (List.length edges);
  { nodes; edges }

let is_absorbing dg = List.exists (fun e -> match e.dst with Absorbed _ -> true | To _ -> false) dg.edges

let deterministic_cycle_of_graph ~add ~zero (g : ('t, 'p) Semantics.graph) =
  let n = Array.length g.Semantics.states in
  if n = 0 then None
  else begin
    let seen = Array.make n false in
    let rec go cur rev_path =
      if seen.(cur) then begin
        (* find the loop portion and re-accumulate its delay *)
        let path = List.rev rev_path in
        let rec split = function
          | [] -> []
          | x :: rest -> if x = cur then x :: rest else split rest
        in
        let cycle = split path in
        let delay = ref zero in
        let rec walk = function
          | [] -> ()
          | x :: rest ->
            (match g.Semantics.out.(x) with
             | [ e ] -> delay := add !delay e.Semantics.delay
             | _ -> ());
            walk rest
        in
        walk cycle;
        Some (!delay, cycle)
      end
      else begin
        seen.(cur) <- true;
        match g.Semantics.out.(cur) with
        | [] -> None
        | [ e ] -> go e.Semantics.dst (cur :: rev_path)
        | _ -> invalid_arg "deterministic_cycle_of_graph: graph has decision nodes"
      end
    in
    go 0 []
  end

let pp ~pp_delay ~pp_prob fmt dg =
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "decision nodes: %s@,"
    (String.concat ", " (List.map (fun i -> string_of_int (i + 1)) dg.nodes));
  List.iteri
    (fun k e ->
      let dst = match e.dst with To j -> string_of_int (j + 1) | Absorbed j -> Printf.sprintf "terminal %d" (j + 1) in
      Format.fprintf fmt "edge %d: %d -> %s  p=%a  d=%a@," (k + 1) (e.src + 1) dst pp_prob
        e.prob pp_delay e.delay)
    dg.edges;
  Format.pp_close_box fmt ()

let to_dot ~pp_delay ~pp_prob dg =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escape s =
    String.concat ""
      (List.map (fun c -> if c = '"' then "\\\"" else String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  pr "digraph decision_graph {\n";
  List.iter (fun n -> pr "  n%d [shape=diamond, label=\"%d\"];\n" n (n + 1)) dg.nodes;
  List.iter
    (fun e ->
      let label =
        Format.asprintf "%a / %a" pp_prob e.prob pp_delay e.delay |> escape
      in
      match e.dst with
      | To d -> pr "  n%d -> n%d [label=\"%s\"];\n" e.src d label
      | Absorbed d ->
        pr "  term%d [shape=doublecircle, label=\"%d\"];\n" d (d + 1);
        pr "  n%d -> term%d [label=\"%s\"];\n" e.src d label)
    dg.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
