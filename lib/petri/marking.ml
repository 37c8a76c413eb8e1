type t = int array

let of_net = Net.initial_marking
let copy = Array.copy
let tokens (m : t) p = m.(p)

let enabled net (m : t) t = List.for_all (fun (p, w) -> m.(p) >= w) (Net.inputs net t)

let enabled_transitions net m =
  List.filter (enabled net m) (Net.transitions net)

let consume net (m : t) t =
  if not (enabled net m t) then
    invalid_arg (Printf.sprintf "Marking.consume: %s not enabled" (Net.trans_name net t));
  let m' = Array.copy m in
  List.iter (fun (p, w) -> m'.(p) <- m'.(p) - w) (Net.inputs net t);
  m'

let produce net (m : t) t =
  let m' = Array.copy m in
  List.iter (fun (p, w) -> m'.(p) <- m'.(p) + w) (Net.outputs net t);
  m'

let fire net m t = produce net (consume net m t) t

let total (m : t) = Array.fold_left ( + ) 0 m
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (m : t) = Hashtbl.hash m

let pp net fmt (m : t) =
  let entries =
    List.filter_map
      (fun p -> if m.(p) > 0 then Some (p, m.(p)) else None)
      (Net.places net)
  in
  Format.pp_print_string fmt "{";
  List.iteri
    (fun i (p, k) ->
      if i > 0 then Format.pp_print_string fmt ", ";
      if k = 1 then Format.pp_print_string fmt (Net.place_name net p)
      else Format.fprintf fmt "%d*%s" k (Net.place_name net p))
    entries;
  Format.pp_print_string fmt "}"
