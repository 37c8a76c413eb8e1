module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Inv = Tpan_petri.Invariants
module Siphons = Tpan_petri.Siphons
module Lin = Tpan_symbolic.Linexpr
module Rf = Tpan_symbolic.Ratfun
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic

let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

let header fmt title = Format.fprintf fmt "@.--- %s ---@." title

let structure fmt tpn =
  let net = Tpn.net tpn in
  header fmt "structure";
  Format.fprintf fmt "net %s: %d places, %d transitions (%a)@." (Net.name net)
    (Net.num_places net) (Net.num_transitions net) Tpan_petri.Classify.pp
    (Tpan_petri.Classify.classify net);
  Array.iteri
    (fun i ts ->
      if List.length ts > 1 then
        Format.fprintf fmt "conflict set %d: {%s}@." i
          (String.concat ", " (List.map (Net.trans_name net) ts)))
    (Tpn.conflict_sets tpn);
  header fmt "structural analysis";
  List.iter
    (fun y ->
      Format.fprintf fmt "P-invariant: %a = %d@." (Inv.pp_p_invariant net) y
        (Inv.invariant_value y (Net.initial_marking net)))
    (Inv.p_invariants net);
  List.iter
    (fun x -> Format.fprintf fmt "T-invariant: %a@." (Inv.pp_t_invariant net) x)
    (Inv.t_invariants net);
  let siphons = Siphons.minimal_siphons ~max_results:64 net in
  Format.fprintf fmt "minimal siphons: %d%s@." (List.length siphons)
    (if Siphons.commoner_satisfied net then " (each contains a marked trap)"
     else " (WARNING: some siphon has no marked trap)");
  match Siphons.unmarked_siphons net with
  | [] -> ()
  | l ->
    List.iter
      (fun s ->
        Format.fprintf fmt "initially-empty siphon: {%s}@."
          (String.concat ", " (List.map (Net.place_name net) s)))
      l

let concrete ?max_states ?(events = []) fmt tpn =
  structure fmt tpn;
  let g = CG.build ?max_states tpn in
  let net = Tpn.net tpn in
  header fmt "timed reachability";
  Format.fprintf fmt "%d states, %d edges, %d decision nodes, %d terminal@."
    (CG.Graph.num_states g) (CG.Graph.num_edges g)
    (List.length (Sem.branching_states g))
    (List.length (CG.Graph.terminal_states g));
  (match Measures.Concrete.analyze g with
   | res ->
     header fmt "steady state";
     Format.fprintf fmt "%a@."
       (Decision_graph.pp ~pp_delay:(Q.pp_decimal ~digits:6) ~pp_prob:(Q.pp_decimal ~digits:6))
       res.Rates.dg;
     Format.fprintf fmt "mean cycle time: %s@." (qf res.Rates.total_weight);
     List.iter
       (fun t ->
         let thr = Measures.throughput_of_transition res ~by:`Completed t in
         if not (Q.is_zero thr) then
           Format.fprintf fmt "completion rate %-12s %s (period %s)@." (Net.trans_name net t)
             (qf thr) (qf (Q.inv thr)))
       (Net.transitions net);
     List.iter
       (fun p ->
         let u =
           Measures.Concrete.utilization res ~graph:g (fun st ->
               Tpan_petri.Marking.tokens st.Sem.marking p > 0)
         in
         if not (Q.is_zero u) then
           Format.fprintf fmt "marked-time share %-10s %s@." (Net.place_name net p) (qf u))
       (Net.places net)
   | exception Rates.Unsolvable msg -> Format.fprintf fmt "steady state: %s@." msg);
  if events <> [] then begin
    header fmt "first-passage latencies";
    List.iter
      (fun name ->
        match Passage.concrete_latency g ~event:(Passage.completion_event tpn name) () with
        | Some h -> Format.fprintf fmt "time to first %s completion: %s@." name (qf h)
        | None -> Format.fprintf fmt "time to first %s completion: infinite@." name)
      events
  end

let symbolic ?max_states ?(events = []) fmt tpn =
  structure fmt tpn;
  header fmt "timing constraints";
  Format.fprintf fmt "%a@." Tpan_symbolic.Constraints.pp (Tpn.constraints tpn);
  let g = SG.build ?max_states tpn in
  header fmt "symbolic timed reachability";
  Format.fprintf fmt "%d states, %d edges@." (SG.Graph.num_states g) (SG.Graph.num_edges g);
  (match SG.constraint_audit g with
   | [] -> ()
   | audit ->
     List.iter
       (fun (s, d, labels) ->
         Format.fprintf fmt "minimum at %d -> %d justified by %s@." (s + 1) (d + 1)
           (String.concat ", " labels))
       audit);
  (match Measures.Symbolic.analyze g with
   | res ->
     header fmt "symbolic steady state";
     Format.fprintf fmt "%a@." (Decision_graph.pp ~pp_delay:Lin.pp ~pp_prob:Rf.pp) res.Rates.dg;
     let net = Tpn.net tpn in
     List.iter
       (fun t ->
         let thr = Measures.throughput_of_transition res ~by:`Completed t in
         if not (Rf.is_zero thr) then
           Format.fprintf fmt "completion rate %s = %a@." (Net.trans_name net t) Rf.pp thr)
       (Net.transitions net)
   | exception Rates.Unsolvable msg -> Format.fprintf fmt "steady state: %s@." msg);
  if events <> [] then begin
    header fmt "symbolic first-passage latencies";
    List.iter
      (fun name ->
        match Passage.symbolic_latency g ~event:(Passage.completion_event tpn name) () with
        | Some h -> Format.fprintf fmt "time to first %s completion = %a@." name Rf.pp h
        | None -> Format.fprintf fmt "time to first %s completion: infinite@." name)
      events
  end
