type graph = {
  net : Net.t;
  states : Marking.t array;
  edges : (Net.trans * int) list array;
}

exception State_limit of int

module MT = Hashtbl.Make (struct
  type t = Marking.t

  let equal = Marking.equal
  let hash = Marking.hash
end)

let m_states = Tpan_obs.Metrics.counter "petri.reachability.states"

let explore ?(max_states = 100_000) ?(on_progress = fun _ -> ()) net =
  let index = MT.create 1024 in
  let states = ref [] in
  let count = ref 0 in
  let intern m =
    match MT.find_opt index m with
    | Some i -> (i, false)
    | None ->
      if !count >= max_states then raise (State_limit max_states);
      let i = !count in
      incr count;
      MT.add index m i;
      states := m :: !states;
      Tpan_obs.Metrics.Counter.incr m_states;
      on_progress !count;
      (i, true)
  in
  let queue = Queue.create () in
  let m0 = Marking.of_net net in
  let i0, _ = intern m0 in
  Queue.add (i0, m0) queue;
  let out = Hashtbl.create 1024 in
  while not (Queue.is_empty queue) do
    Tpan_obs.Cancel.checkpoint ();
    let i, m = Queue.take queue in
    let succs =
      List.map
        (fun t ->
          let m' = Marking.fire net m t in
          let j, fresh = intern m' in
          if fresh then Queue.add (j, m') queue;
          (t, j))
        (Marking.enabled_transitions net m)
    in
    Hashtbl.replace out i succs
  done;
  let states = Array.of_list (List.rev !states) in
  let edges = Array.init (Array.length states) (fun i -> Option.value ~default:[] (Hashtbl.find_opt out i)) in
  { net; states; edges }

let num_states g = Array.length g.states
let num_edges g = Array.fold_left (fun acc l -> acc + List.length l) 0 g.edges

let deadlocks g =
  List.filter (fun i -> g.edges.(i) = []) (List.init (num_states g) Fun.id)

let is_deadlock_free g = deadlocks g = []

let place_bound g p =
  Array.fold_left (fun acc m -> Stdlib.max acc (Marking.tokens m p)) 0 g.states

let is_safe g =
  List.for_all (fun p -> place_bound g p <= 1) (Net.places g.net)

let live_transitions g =
  let seen = Array.make (Net.num_transitions g.net) false in
  Array.iter (fun l -> List.iter (fun (t, _) -> seen.(t) <- true) l) g.edges;
  List.filter (fun t -> seen.(t)) (Net.transitions g.net)

let path_to g pred =
  let n = num_states g in
  let prev = Array.make n None in
  let visited = Array.make n false in
  let queue = Queue.create () in
  visited.(0) <- true;
  Queue.add 0 queue;
  let target = ref None in
  if pred g.states.(0) then target := Some 0;
  while !target = None && not (Queue.is_empty queue) do
    let i = Queue.take queue in
    List.iter
      (fun (t, j) ->
        if not visited.(j) then begin
          visited.(j) <- true;
          prev.(j) <- Some (i, t);
          if !target = None && pred g.states.(j) then target := Some j;
          Queue.add j queue
        end)
      g.edges.(i)
  done;
  match !target with
  | None -> None
  | Some j ->
    let rec build acc j =
      match prev.(j) with None -> acc | Some (i, t) -> build (t :: acc) i
    in
    Some (build [] j)
