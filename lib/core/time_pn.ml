module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Marking = Tpan_petri.Marking

type interval = { min : Q.t; max : Q.t option }

let interval ?max min =
  if Q.sign min < 0 then invalid_arg "Time_pn.interval: negative min";
  (match max with
   | Some m when Q.compare m min < 0 -> invalid_arg "Time_pn.interval: max < min"
   | Some _ | None -> ());
  { min; max }

type t = { net : Net.t; intervals : interval array }

let make net specs =
  let nt = Net.num_transitions net in
  let intervals = Array.make nt { min = Q.zero; max = Some Q.zero } in
  let seen = Array.make nt false in
  List.iter
    (fun (name, iv) ->
      let t =
        try Net.trans_of_name net name
        with Not_found -> invalid_arg (Printf.sprintf "Time_pn.make: unknown transition %S" name)
      in
      if seen.(t) then invalid_arg (Printf.sprintf "Time_pn.make: duplicate interval for %S" name);
      seen.(t) <- true;
      intervals.(t) <- iv)
    specs;
  Array.iteri
    (fun t b ->
      if not b then
        invalid_arg
          (Printf.sprintf "Time_pn.make: missing interval for %S" (Net.trans_name net t)))
    seen;
  { net; intervals }

let net g = g.net
let interval_of g t = g.intervals.(t)

type state_class = { marking : Marking.t; enabled : Net.trans list; domain : Dbm.t }

type graph = {
  tpn : t;
  classes : state_class array;
  edges : (Net.trans * int) list array;
}

(* Initial firing domain: min_i <= theta_i <= max_i over the enabled
   transitions (1-based DBM indices following [enabled]'s order). *)
let initial_class g =
  let marking = Marking.of_net g.net in
  let enabled = List.filter (Marking.enabled g.net marking) (Net.transitions g.net) in
  let d = Dbm.create (List.length enabled) in
  List.iteri
    (fun idx t ->
      let i = idx + 1 in
      let iv = g.intervals.(t) in
      Dbm.constrain d 0 i (Dbm.Fin (Q.neg iv.min));
      (match iv.max with Some m -> Dbm.constrain d i 0 (Dbm.Fin m) | None -> ()))
    enabled;
  ignore (Dbm.canonicalize d : bool);
  { marking; enabled; domain = d }

let index_of cls t =
  let rec go i = function
    | [] -> raise Not_found
    | x :: rest -> if x = t then i else go (i + 1) rest
  in
  go 1 cls.enabled

(* t can fire first iff the domain stays consistent once theta_t is forced
   to be minimal. *)
let can_fire_first cls t =
  let f = index_of cls t in
  let d = Dbm.copy cls.domain in
  List.iteri
    (fun idx _ ->
      let j = idx + 1 in
      if j <> f then Dbm.constrain d f j (Dbm.Fin Q.zero))
    cls.enabled;
  Dbm.canonicalize d

let firable g cls =
  ignore g;
  List.filter (can_fire_first cls) cls.enabled

let can_dwell _g cls =
  (* time can pass iff no enabled transition has a zero upper residual *)
  cls.enabled = []
  || List.for_all
       (fun idx ->
         match Dbm.get cls.domain (idx + 1) 0 with
         | Dbm.Fin q -> Tpan_mathkit.Q.sign q > 0
         | Dbm.Inf -> true)
       (List.mapi (fun i _ -> i) cls.enabled)

let successor g cls t =
  let f = index_of cls t in
  (* 1. restrict to runs where t fires first *)
  let d1 = Dbm.copy cls.domain in
  List.iteri
    (fun idx _ ->
      let j = idx + 1 in
      if j <> f then Dbm.constrain d1 f j (Dbm.Fin Q.zero))
    cls.enabled;
  if not (Dbm.canonicalize d1) then invalid_arg "Time_pn.successor: transition cannot fire first";
  (* 2. markings before/after token movement *)
  let m1 = Marking.consume g.net cls.marking t in
  let m2 = Marking.produce g.net m1 t in
  let persistent =
    List.filter (fun u -> u <> t && Marking.enabled g.net m1 u) cls.enabled
  in
  let newly =
    List.filter
      (fun u -> Marking.enabled g.net m2 u && not (List.mem u persistent))
      (Net.transitions g.net)
  in
  (* the paper's restriction carries over: no multiple simultaneous
     enabledness of one transition — checked over EVERY transition enabled
     in the new marking (a persistent transition whose input gains a second
     token is just as much outside the model as a newly enabled one) *)
  List.iter
    (fun u ->
      let inputs = Net.inputs g.net u in
      if inputs <> [] && List.for_all (fun (p, w) -> Marking.tokens m2 p >= 2 * w) inputs then
        raise
          (Tpn.Unsupported
             (Printf.sprintf "Time_pn: transition %s multiply enabled" (Net.trans_name g.net u))))
    (persistent @ newly);
  let enabled' = List.sort compare (persistent @ newly) in
  let d' = Dbm.create (List.length enabled') in
  let old_index u = index_of cls u in
  List.iteri
    (fun idx_i u ->
      let i' = idx_i + 1 in
      if List.mem u persistent then begin
        let i = old_index u in
        (* theta'_u = theta_u - theta_t *)
        Dbm.constrain d' i' 0 (Dbm.get d1 i f);
        Dbm.constrain d' 0 i' (Dbm.get d1 f i)
      end
      else begin
        let iv = g.intervals.(u) in
        Dbm.constrain d' 0 i' (Dbm.Fin (Q.neg iv.min));
        match iv.max with Some m -> Dbm.constrain d' i' 0 (Dbm.Fin m) | None -> ()
      end)
    enabled';
  (* pairwise bounds among persistent transitions carry over unchanged *)
  List.iteri
    (fun idx_i u ->
      List.iteri
        (fun idx_j v ->
          if idx_i <> idx_j && List.mem u persistent && List.mem v persistent then
            Dbm.constrain d' (idx_i + 1) (idx_j + 1) (Dbm.get d1 (old_index u) (old_index v)))
        enabled')
    enabled';
  if not (Dbm.canonicalize d') then assert false;
  { marking = m2; enabled = enabled'; domain = d' }

module CT = Hashtbl.Make (struct
  type t = state_class

  let equal a b =
    Marking.equal a.marking b.marking && a.enabled = b.enabled && Dbm.equal a.domain b.domain

  let hash c = (Marking.hash c.marking * 31) + Dbm.hash c.domain
end)

let build ?(max_classes = 100_000) g =
  let index = CT.create 256 in
  let classes = ref [] and count = ref 0 in
  let intern c =
    match CT.find_opt index c with
    | Some i -> (i, false)
    | None ->
      if !count >= max_classes then raise (Tpan_petri.Reachability.State_limit max_classes);
      let i = !count in
      incr count;
      CT.add index c i;
      classes := c :: !classes;
      (i, true)
  in
  let c0 = initial_class g in
  let i0, _ = intern c0 in
  let queue = Queue.create () in
  Queue.add (i0, c0) queue;
  let out = Hashtbl.create 256 in
  while not (Queue.is_empty queue) do
    let i, c = Queue.take queue in
    let succs =
      List.map
        (fun t ->
          let c' = successor g c t in
          let j, fresh = intern c' in
          if fresh then Queue.add (j, c') queue;
          (t, j))
        (firable g c)
    in
    Hashtbl.replace out i succs
  done;
  let classes = Array.of_list (List.rev !classes) in
  let edges = Array.init (Array.length classes) (fun i -> Option.value ~default:[] (Hashtbl.find_opt out i)) in
  { tpn = g; classes; edges }

let num_classes g = Array.length g.classes

let reachable_markings g =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun c -> if not (Hashtbl.mem seen c.marking) then Hashtbl.add seen c.marking ())
    g.classes;
  Hashtbl.fold (fun m () acc -> m :: acc) seen []

(* ----- Figure 2 translation ----- *)

let of_tpn tpn =
  if not (Tpn.is_concrete tpn) then
    raise (Tpn.Unsupported "Time_pn.of_tpn: net has symbolic times");
  let src = Tpn.net tpn in
  let b = Net.builder (Net.name src ^ "_timepn") in
  let init = Net.initial_marking src in
  (* original places first, preserving indices *)
  List.iter
    (fun p -> ignore (Net.add_place b ~init:init.(p) (Net.place_name src p)))
    (Net.places src);
  (* one buffer place per transition *)
  let busy =
    List.map
      (fun t -> (t, Net.add_place b (Net.trans_name src t ^ "__busy")))
      (Net.transitions src)
  in
  let specs = ref [] in
  List.iter
    (fun t ->
      let name = Net.trans_name src t in
      let buf = List.assoc t busy in
      ignore
        (Net.add_transition b ~name:(name ^ "__absorb") ~inputs:(Net.inputs src t)
           ~outputs:[ (buf, 1) ]);
      ignore
        (Net.add_transition b ~name:(name ^ "__emit") ~inputs:[ (buf, 1) ]
           ~outputs:(Net.outputs src t));
      let e = Tpn.enabling_q tpn t and f = Tpn.firing_q tpn t in
      specs :=
        (name ^ "__emit", { min = f; max = Some f })
        :: (name ^ "__absorb", { min = e; max = Some e })
        :: !specs)
    (Net.transitions src);
  let tnet = Net.build b in
  let timed = make tnet !specs in
  (timed, fun t -> Net.trans_name src t ^ "__emit")

let project_marking _g m ~original_places = Array.sub m 0 original_places
