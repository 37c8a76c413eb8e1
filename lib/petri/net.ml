type place = int
type trans = int

type tinfo = { tname : string; tin : (place * int) list; tout : (place * int) list }

type t = {
  name : string;
  place_names : string array;
  init : int array;
  trans : tinfo array;
  place_index : (string, place) Hashtbl.t;
  trans_index : (string, trans) Hashtbl.t;
  consumers : trans list array;
  producers : trans list array;
}

type builder = {
  bname : string;
  mutable bplaces : (string * int) list; (* reverse order *)
  mutable btrans : tinfo list; (* reverse order *)
  bplace_index : (string, place) Hashtbl.t;
  btrans_names : (string, unit) Hashtbl.t;
  mutable nplaces : int;
}

let builder bname =
  { bname; bplaces = []; btrans = []; bplace_index = Hashtbl.create 16;
    btrans_names = Hashtbl.create 16; nplaces = 0 }

let add_place b ?(init = 0) pname =
  if init < 0 then invalid_arg "Net.add_place: negative initial marking";
  if Hashtbl.mem b.bplace_index pname then
    invalid_arg ("Net.add_place: duplicate place " ^ Tpan_obs.Quote.quote pname);
  let idx = b.nplaces in
  b.nplaces <- idx + 1;
  b.bplaces <- (pname, init) :: b.bplaces;
  Hashtbl.add b.bplace_index pname idx;
  idx

(* Merge duplicate places in a bag, validating indices and multiplicities. *)
let normalize_bag b what bag =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p, w) ->
      if p < 0 || p >= b.nplaces then invalid_arg (Printf.sprintf "Net.add_transition: unknown place in %s" what);
      if w <= 0 then invalid_arg (Printf.sprintf "Net.add_transition: non-positive multiplicity in %s" what);
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl p) in
      Hashtbl.replace tbl p (cur + w))
    bag;
  Hashtbl.fold (fun p w acc -> (p, w) :: acc) tbl []
  |> List.sort (fun (a, _) (c, _) -> Stdlib.compare a c)

let add_transition b ~name ~inputs ~outputs =
  if Hashtbl.mem b.btrans_names name then
    invalid_arg ("Net.add_transition: duplicate transition " ^ Tpan_obs.Quote.quote name);
  Hashtbl.add b.btrans_names name ();
  let tin = normalize_bag b "inputs" inputs in
  let tout = normalize_bag b "outputs" outputs in
  let idx = List.length b.btrans in
  b.btrans <- { tname = name; tin; tout } :: b.btrans;
  idx

let build b =
  let bplaces = Array.of_list (List.rev b.bplaces) in
  let trans = Array.of_list (List.rev b.btrans) in
  let place_names = Array.map fst bplaces in
  let init = Array.map snd bplaces in
  let place_index = Hashtbl.copy b.bplace_index in
  let trans_index = Hashtbl.create 16 in
  Array.iteri (fun i ti -> Hashtbl.add trans_index ti.tname i) trans;
  let np = Array.length place_names in
  let consumers = Array.make np [] and producers = Array.make np [] in
  Array.iteri
    (fun ti info ->
      List.iter (fun (p, _) -> consumers.(p) <- ti :: consumers.(p)) info.tin;
      List.iter (fun (p, _) -> producers.(p) <- ti :: producers.(p)) info.tout)
    trans;
  Array.iteri (fun p l -> consumers.(p) <- List.rev l) consumers;
  Array.iteri (fun p l -> producers.(p) <- List.rev l) producers;
  { name = b.bname; place_names; init; trans; place_index; trans_index; consumers; producers }

let name n = n.name
let num_places n = Array.length n.place_names
let num_transitions n = Array.length n.trans
let place_name n p = n.place_names.(p)
let trans_name n t = n.trans.(t).tname
let place_of_name n s = Hashtbl.find n.place_index s
let trans_of_name n s = Hashtbl.find n.trans_index s
let places n = List.init (num_places n) Fun.id
let transitions n = List.init (num_transitions n) Fun.id

let inputs n t = n.trans.(t).tin
let outputs n t = n.trans.(t).tout

let weight bag p = try List.assoc p bag with Not_found -> 0
let input_weight n t p = weight n.trans.(t).tin p
let output_weight n t p = weight n.trans.(t).tout p

let pre_places n t = List.map fst n.trans.(t).tin
let post_places n t = List.map fst n.trans.(t).tout

let consumers n p = n.consumers.(p)
let producers n p = n.producers.(p)

let incidence n =
  let np = num_places n and nt = num_transitions n in
  let c = Array.make_matrix np nt 0 in
  for t = 0 to nt - 1 do
    List.iter (fun (p, w) -> c.(p).(t) <- c.(p).(t) - w) n.trans.(t).tin;
    List.iter (fun (p, w) -> c.(p).(t) <- c.(p).(t) + w) n.trans.(t).tout
  done;
  c

let initial_marking n = Array.copy n.init

let structurally_conflicting n t1 t2 =
  t1 = t2
  || List.exists (fun (p, _) -> List.mem_assoc p n.trans.(t2).tin) n.trans.(t1).tin

let pp fmt n =
  Format.fprintf fmt "@[<v>net %s@," n.name;
  Array.iteri
    (fun i pname ->
      if n.init.(i) > 0 then Format.fprintf fmt "place %s init %d@," pname n.init.(i)
      else Format.fprintf fmt "place %s@," pname)
    n.place_names;
  Array.iter
    (fun ti ->
      let pp_bag fmt bag =
        Format.pp_print_list
          ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
          (fun fmt (p, w) ->
            if w = 1 then Format.pp_print_string fmt n.place_names.(p)
            else Format.fprintf fmt "%d*%s" w n.place_names.(p))
          fmt bag
      in
      Format.fprintf fmt "trans %s { in %a; out %a }@," ti.tname pp_bag ti.tin pp_bag ti.tout)
    n.trans;
  Format.fprintf fmt "@]"
