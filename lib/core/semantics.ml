module Net = Tpan_petri.Net
module Marking = Tpan_petri.Marking
module Metrics = Tpan_obs.Metrics

(* Shared across Make instances: one TRG is built per run, and the profile
   view wants concrete and symbolic builds under the same names. *)
let m_states = Metrics.counter "core.semantics.states_interned"
let m_edges = Metrics.counter "core.semantics.edges"
let m_frontier_peak = Metrics.gauge "core.semantics.frontier_peak"
let h_successors = Metrics.histogram "core.semantics.successor_seconds"

module type DOMAIN = sig
  type time
  type prob

  val enabling_time : Tpn.t -> Net.trans -> time
  val firing_time : Tpn.t -> Net.trans -> time
  val zero : time
  val is_zero : time -> bool
  val add : time -> time -> time
  val sub : time -> time -> time
  val normalize : Tpn.t -> time -> time
  val compare_time : Tpn.t -> time -> time -> [ `Lt | `Eq | `Gt ]
  val time_equal : time -> time -> bool
  val time_hash : time -> int
  val pp_time : Format.formatter -> time -> unit
  val prob_one : prob
  val prob_mul : prob -> prob -> prob
  val prob_of_choice : Tpn.t -> chosen:Net.trans -> among:Net.trans list -> prob
  val prob_equal : prob -> prob -> bool
  val pp_prob : Format.formatter -> prob -> unit
end

type state_kind = Decision | Advance | Terminal

type 'time state = { marking : Marking.t; ret : 'time array; rft : 'time array }

type ('time, 'prob) edge = {
  src : int;
  dst : int;
  delay : 'time;
  prob : 'prob;
  fired : Net.trans list;
  completed : Net.trans list;
}

type ('time, 'prob) graph = {
  tpn : Tpn.t;
  states : 'time state array;
  out : ('time, 'prob) edge list array;
  kinds : state_kind array;
}

let branching_states g =
  List.filter
    (fun i -> List.length g.out.(i) > 1)
    (List.init (Array.length g.states) Fun.id)

module Make (D : DOMAIN) = struct
  type nonrec state = D.time state
  type nonrec edge = (D.time, D.prob) edge
  type nonrec graph = (D.time, D.prob) graph

  type edge_data = {
    e_delay : D.time;
    e_prob : D.prob;
    e_fired : Net.trans list;
    e_completed : Net.trans list;
  }

  let state_equal a b =
    Marking.equal a.marking b.marking
    && Array.for_all2 D.time_equal a.ret b.ret
    && Array.for_all2 D.time_equal a.rft b.rft

  let state_hash s =
    let h = ref (Marking.hash s.marking) in
    Array.iter (fun t -> h := (!h * 31) + D.time_hash t) s.ret;
    Array.iter (fun t -> h := (!h * 31) + D.time_hash t) s.rft;
    !h land max_int

  (* A transition is firable when it is enabled and its enabling time has
     fully elapsed. Single-server check: it must not still be firing. *)
  let firable tpn st t =
    Marking.enabled (Tpn.net tpn) st.marking t && D.is_zero st.ret.(t)

  let check_single_server tpn st t =
    if not (D.is_zero st.rft.(t)) then
      raise
        (Tpn.Unsupported
           (Printf.sprintf
              "transition %s becomes firable while already firing (multiple simultaneous firings are outside the model)"
              (Net.trans_name (Tpn.net tpn) t)))

  let initial_state tpn =
    let net = Tpn.net tpn in
    let nt = Net.num_transitions net in
    let marking = Marking.of_net net in
    let ret = Array.make nt D.zero in
    let rft = Array.make nt D.zero in
    List.iter
      (fun t ->
        if Marking.enabled net marking t then
          ret.(t) <- D.normalize tpn (D.enabling_time tpn t))
      (Net.transitions net);
    { marking; ret; rft }

  let kind_of_state tpn st =
    let net = Tpn.net tpn in
    if List.exists (fun t -> firable tpn st t) (Net.transitions net) then Decision
    else if Array.exists (fun x -> not (D.is_zero x)) st.ret
            || Array.exists (fun x -> not (D.is_zero x)) st.rft
    then Advance
    else Terminal

  (* --- Decision step: fire one transition from each firable conflict set
     (the paper's selectors = cross product of firable conflict sets). --- *)

  let selectors tpn firables =
    (* Group firable transitions by conflict set, in set order. *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun t ->
        let cs = Tpn.conflict_set_of tpn t in
        Hashtbl.replace groups cs (t :: (Option.value ~default:[] (Hashtbl.find_opt groups cs))))
      (List.rev firables);
    let sets = Hashtbl.fold (fun cs ts acc -> (cs, ts) :: acc) groups [] in
    let sets = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) sets in
    (* Within a set, zero-frequency transitions fire only when no
       positive-frequency member is firable. *)
    let candidates_of (_, members) =
      let pos = List.filter (fun t -> not (Tpn.is_zero_frequency tpn t)) members in
      match (pos, members) with
      | _ :: _, _ -> pos
      | [], [ t ] -> [ t ]
      | [], _ ->
        raise
          (Tpn.Unsupported
             (Printf.sprintf
                "decision between several zero-frequency transitions {%s}: probabilities undefined"
                (String.concat ", "
                   (List.map (Net.trans_name (Tpn.net tpn)) members))))
    in
    let choice_sets = List.map candidates_of sets in
    (* Cross product, with the branching probability of each choice. *)
    let rec cross = function
      | [] -> [ ([], D.prob_one) ]
      | among :: rest ->
        let tails = cross rest in
        List.concat_map
          (fun chosen ->
            let p = D.prob_of_choice tpn ~chosen ~among in
            List.map (fun (sel, q) -> (chosen :: sel, D.prob_mul p q)) tails)
          among
    in
    cross choice_sets

  let decision_successors tpn st firables =
    let net = Tpn.net tpn in
    let nt = Net.num_transitions net in
    List.map
      (fun (sel, prob) ->
        List.iter (fun t -> check_single_server tpn st t) sel;
        (* absorb input tokens of every selected transition *)
        let marking =
          List.fold_left (fun m t -> Marking.consume net m t) st.marking sel
        in
        (* The paper requires firing to disable the whole conflict set —
           in particular the fired transition itself. *)
        List.iter
          (fun t ->
            if Marking.enabled net marking t then
              raise
                (Tpn.Unsupported
                   (Printf.sprintf
                      "firing %s does not disable it: the net allows multiple simultaneous firings"
                      (Net.trans_name net t))))
          sel;
        let ret = Array.copy st.ret and rft = Array.copy st.rft in
        List.iter (fun t -> rft.(t) <- D.normalize tpn (D.firing_time tpn t); ret.(t) <- D.zero) sel;
        (* transitions disabled by the token absorption lose their RET
           (their continuous-enabling interval is broken) *)
        for t = 0 to nt - 1 do
          if (not (D.is_zero ret.(t))) && not (Marking.enabled net marking t) then
            ret.(t) <- D.zero
        done;
        (* F(t) = 0 transitions complete instantaneously: produce their
           outputs in the same step. *)
        let instant = List.filter (fun t -> D.is_zero rft.(t)) sel in
        let marking' =
          List.fold_left (fun m t -> Marking.produce net m t) marking instant
        in
        if instant <> [] then
          for t = 0 to nt - 1 do
            if Marking.enabled net marking' t && not (Marking.enabled net marking t) then begin
              check_single_server tpn { marking = marking'; ret; rft } t;
              ret.(t) <- D.normalize tpn (D.enabling_time tpn t)
            end
          done;
        let st' = { marking = marking'; ret; rft } in
        ({ e_delay = D.zero; e_prob = prob; e_fired = sel; e_completed = instant }, st'))
      (selectors tpn firables)

  (* --- Time advance: let the smallest non-zero RET/RFT elapse. --- *)

  let advance_successor tpn st =
    let net = Tpn.net tpn in
    let nt = Net.num_transitions net in
    (* Collect active entries. *)
    let active = ref [] in
    for t = nt - 1 downto 0 do
      if not (D.is_zero st.rft.(t)) then active := `Rft t :: !active;
      if not (D.is_zero st.ret.(t)) then active := `Ret t :: !active
    done;
    match !active with
    | [] -> None
    | first :: rest ->
      let value = function `Ret t -> st.ret.(t) | `Rft t -> st.rft.(t) in
      (* Find the minimum entry; remember which entries tie with it. *)
      let tmin =
        List.fold_left
          (fun acc e ->
            match D.compare_time tpn (value e) acc with `Lt -> value e | `Eq | `Gt -> acc)
          (value first) rest
      in
      let completes = Array.make nt false in
      let ret = Array.make nt D.zero and rft = Array.make nt D.zero in
      for t = 0 to nt - 1 do
        if not (D.is_zero st.rft.(t)) then begin
          match D.compare_time tpn st.rft.(t) tmin with
          | `Eq -> completes.(t) <- true (* rft reaches zero *)
          | `Gt -> rft.(t) <- D.normalize tpn (D.sub st.rft.(t) tmin)
          | `Lt -> assert false
        end;
        if not (D.is_zero st.ret.(t)) then begin
          match D.compare_time tpn st.ret.(t) tmin with
          | `Eq -> () (* enabling period over: ret becomes zero, firable next *)
          | `Gt -> ret.(t) <- D.normalize tpn (D.sub st.ret.(t) tmin)
          | `Lt -> assert false
        end
      done;
      (* produce output tokens of completing transitions *)
      let marking =
        List.fold_left
          (fun m t -> if completes.(t) then Marking.produce net m t else m)
          st.marking (Net.transitions net)
      in
      (* newly enabled transitions start their enabling period *)
      for t = 0 to nt - 1 do
        if Marking.enabled net marking t && not (Marking.enabled net st.marking t) then begin
          if not (D.is_zero rft.(t)) then
            raise
              (Tpn.Unsupported
                 (Printf.sprintf "transition %s becomes enabled while still firing"
                    (Net.trans_name net t)));
          ret.(t) <- D.normalize tpn (D.enabling_time tpn t)
        end
      done;
      let completed = List.filter (fun t -> completes.(t)) (Net.transitions net) in
      let st' = { marking; ret; rft } in
      Some ({ e_delay = tmin; e_prob = D.prob_one; e_fired = []; e_completed = completed }, st')

  let successors tpn st =
    let net = Tpn.net tpn in
    let firables = List.filter (fun t -> firable tpn st t) (Net.transitions net) in
    if firables <> [] then decision_successors tpn st firables
    else match advance_successor tpn st with None -> [] | Some s -> [ s ]

  (* --- Graph construction: BFS with state interning. --- *)

  module ST = Hashtbl.Make (struct
    type t = state

    let equal = state_equal
    let hash = state_hash
  end)

  let build ?(max_states = 100_000) ?(on_progress = fun _ -> ()) tpn =
    let index = ST.create 256 in
    let states = ref [] and count = ref 0 in
    let intern st =
      match ST.find_opt index st with
      | Some i -> (i, false)
      | None ->
        if !count >= max_states then raise (Tpan_petri.Reachability.State_limit max_states);
        let i = !count in
        incr count;
        ST.add index st i;
        states := st :: !states;
        Metrics.Counter.incr m_states;
        on_progress !count;
        (i, true)
    in
    let s0 = initial_state tpn in
    let i0, _ = intern s0 in
    let queue = Queue.create () in
    Queue.add (i0, s0) queue;
    let out = Hashtbl.create 256 in
    while not (Queue.is_empty queue) do
      Tpan_obs.Cancel.checkpoint ();
      Metrics.Gauge.set_max m_frontier_peak (float_of_int (Queue.length queue));
      let i, st = Queue.take queue in
      let succs =
        if Metrics.timing_on () then Metrics.time h_successors (fun () -> successors tpn st)
        else successors tpn st
      in
      let edges =
        List.map
          (fun (d, st') ->
            let j, fresh = intern st' in
            if fresh then Queue.add (j, st') queue;
            Metrics.Counter.incr m_edges;
            { src = i; dst = j; delay = d.e_delay; prob = d.e_prob; fired = d.e_fired;
              completed = d.e_completed })
          succs
      in
      Hashtbl.replace out i edges
    done;
    let states = Array.of_list (List.rev !states) in
    let out = Array.init (Array.length states) (fun i -> Option.value ~default:[] (Hashtbl.find_opt out i)) in
    let kinds = Array.map (kind_of_state tpn) states in
    { tpn; states; out; kinds }

  let terminal_states g =
    List.filter (fun i -> g.kinds.(i) = Terminal) (List.init (Array.length g.states) Fun.id)

  let num_states g = Array.length g.states
  let num_edges g = Array.fold_left (fun acc l -> acc + List.length l) 0 g.out

  let pp_state tpn fmt st =
    let net = Tpn.net tpn in
    Format.fprintf fmt "@[<h>%a" (Marking.pp net) st.marking;
    let pp_vec label vec =
      let entries =
        List.filter_map
          (fun t ->
            if D.is_zero vec.(t) then None
            else Some (Format.asprintf "%s=%a" (Net.trans_name net t) D.pp_time vec.(t)))
          (Net.transitions net)
      in
      if entries <> [] then Format.fprintf fmt " %s[%s]" label (String.concat ", " entries)
    in
    pp_vec "RET" st.ret;
    pp_vec "RFT" st.rft;
    Format.fprintf fmt "@]"
end
