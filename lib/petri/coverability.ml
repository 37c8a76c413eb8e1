type omega_marking = int array

let omega = max_int

type tree = {
  net : Net.t;
  nodes : omega_marking array;
  children : (Net.trans * int) list array;
}

let geq (a : omega_marking) (b : omega_marking) =
  let ok = ref true in
  Array.iteri (fun i bi -> if a.(i) < bi then ok := false) b;
  !ok

let strictly_gt a b = geq a b && a <> b

let enabled net (m : omega_marking) t =
  List.for_all (fun (p, w) -> m.(p) = omega || m.(p) >= w) (Net.inputs net t)

let fire net (m : omega_marking) t =
  let m' = Array.copy m in
  List.iter (fun (p, w) -> if m'.(p) <> omega then m'.(p) <- m'.(p) - w) (Net.inputs net t);
  List.iter (fun (p, w) -> if m'.(p) <> omega then m'.(p) <- m'.(p) + w) (Net.outputs net t);
  m'

(* Accelerate: if an ancestor is strictly covered, grow the increasing
   components to omega. *)
let accelerate ancestors m =
  let m' = Array.copy m in
  List.iter
    (fun anc ->
      if strictly_gt m anc then
        Array.iteri (fun i v -> if m.(i) > v then m'.(i) <- omega) anc)
    ancestors;
  m'

let m_nodes = Tpan_obs.Metrics.counter "petri.coverability.nodes"

let build ?(max_nodes = 100_000) ?(on_progress = fun _ -> ()) net =
  let nodes = ref [] and count = ref 0 in
  let children = Hashtbl.create 256 in
  let add m =
    Tpan_obs.Cancel.checkpoint ();
    if !count >= max_nodes then raise (Reachability.State_limit max_nodes);
    let i = !count in
    incr count;
    nodes := m :: !nodes;
    Tpan_obs.Metrics.Counter.incr m_nodes;
    on_progress !count;
    i
  in
  (* DFS keeping the ancestor chain for acceleration; [seen] prunes repeats
     (turning the tree into a graph keeps it finite and smaller). *)
  let seen = Hashtbl.create 256 in
  let rec go ancestors i m =
    Hashtbl.replace seen m i;
    let succs =
      List.filter_map
        (fun t ->
          if not (enabled net m t) then None
          else begin
            let m' = accelerate (m :: ancestors) (fire net m t) in
            match Hashtbl.find_opt seen m' with
            | Some j -> Some (t, j)
            | None ->
              let j = add m' in
              go (m :: ancestors) j m';
              Some (t, j)
          end)
        (Net.transitions net)
    in
    Hashtbl.replace children i succs
  in
  let m0 = Net.initial_marking net in
  let i0 = add m0 in
  go [] i0 m0;
  let nodes = Array.of_list (List.rev !nodes) in
  let children = Array.init (Array.length nodes) (fun i -> Option.value ~default:[] (Hashtbl.find_opt children i)) in
  { net; nodes; children }

let is_bounded tr = Array.for_all (fun m -> Array.for_all (fun v -> v <> omega) m) tr.nodes

let place_bound tr p =
  let bound = ref 0 in
  let unbounded = ref false in
  Array.iter
    (fun m -> if m.(p) = omega then unbounded := true else bound := Stdlib.max !bound m.(p))
    tr.nodes;
  if !unbounded then None else Some !bound

let unbounded_places tr =
  List.filter (fun p -> place_bound tr p = None) (Net.places tr.net)

let coverable tr target = Array.exists (fun m -> geq m target) tr.nodes
