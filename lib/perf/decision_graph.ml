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

let m_nodes = Tpan_obs.Metrics.counter "perf.decision_graph.nodes"
let m_edges = Tpan_obs.Metrics.counter "perf.decision_graph.edges"
let m_collapsed = Tpan_obs.Metrics.counter "perf.decision_graph.states_collapsed"

type mark = Unseen | On_walk | Done

(* The smallest state of every cycle of single-successor states. Each
   walk follows single successors from a state not yet seen; a walk that
   meets its own trail has closed such a cycle. Every state is walked at
   most once. *)
let renewal_states (g : _ Semantics.graph) =
  let mark = Array.make (Array.length g.Semantics.states) Unseen in
  let found = ref [] in
  (* the trail lists the walk's states latest first; the cycle that [cur]
     closes is its prefix up to [cur] *)
  let rec smallest cur m = function
    | x :: rest when x <> cur -> smallest cur (min m x) rest
    | _ -> m
  in
  let rec walk trail cur =
    match (mark.(cur), g.Semantics.out.(cur)) with
    | Unseen, [ e ] ->
      mark.(cur) <- On_walk;
      walk (cur :: trail) e.Semantics.dst
    | m, _ ->
      if m = On_walk then found := smallest cur cur trail :: !found;
      List.iter (fun s -> mark.(s) <- Done) trail
  in
  for s = 0 to Array.length mark - 1 do
    if mark.(s) = Unseen then walk [] s
  done;
  !found

let of_graph ~add ~mul (g : ('t, 'p) Semantics.graph) =
  Tpan_obs.Trace.with_span "decision_graph.collapse" @@ fun sp ->
  let is_node = Array.make (Array.length g.Semantics.states) false in
  List.iter (fun i -> is_node.(i) <- true) (Semantics.branching_states g);
  List.iter (fun i -> is_node.(i) <- true) (renewal_states g);
  let nodes = List.filter (fun i -> is_node.(i)) (List.init (Array.length is_node) Fun.id) in
  (* Walk a deterministic chain from the head edge of a node until the
     next node or a terminal state. A renewal node's walk goes round its
     cycle and back to itself. *)
  let collapse src (first : ('t, 'p) Semantics.edge) =
    let rec go delay prob fired completed rev_path cur =
      Tpan_obs.Cancel.checkpoint ();
      let reach dst =
        { src; dst; delay; prob; path = List.rev (cur :: rev_path);
          fired = List.rev fired; completed = List.rev completed }
      in
      if is_node.(cur) then reach (To cur)
      else
        match g.Semantics.out.(cur) with
        | [] -> reach (Absorbed cur)
        | [ e ] ->
          go (add delay e.Semantics.delay)
            (mul prob e.Semantics.prob)
            (List.rev_append e.Semantics.fired fired)
            (List.rev_append e.Semantics.completed completed)
            (cur :: rev_path) e.Semantics.dst
        | _ -> assert false (* multi-successor states are nodes *)
    in
    go first.Semantics.delay first.Semantics.prob
      (List.rev first.Semantics.fired)
      (List.rev first.Semantics.completed)
      [ src ] first.Semantics.dst
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
