module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Marking = Tpan_petri.Marking
module Reach = Tpan_petri.Reachability
module Tpn = Tpan_core.Tpn

type t = { graph : Reach.graph; rates : Q.t array }

let build ?max_states tpn =
  if not (Tpn.is_concrete tpn) then
    raise (Tpn.Unsupported "Exponential.build: net has symbolic times or frequencies");
  let net = Tpn.net tpn in
  (* Frequencies are *relative* weights within a conflict set; normalize by
     the set total so that a lone transition keeps rate 1/mean and a
     weighted pair with equal means splits the races by the weights. *)
  let cs_total =
    Array.map
      (fun members ->
        List.fold_left (fun acc t -> Q.add acc (Tpn.frequency_q tpn t)) Q.zero members)
      (Tpn.conflict_sets tpn)
  in
  let rates =
    Array.init (Net.num_transitions net) (fun t ->
        let mean = Q.add (Tpn.enabling_q tpn t) (Tpn.firing_q tpn t) in
        if Q.is_zero mean then
          raise
            (Tpn.Unsupported
               (Printf.sprintf
                  "Exponential.build: transition %s has zero mean delay (infinite rate)"
                  (Net.trans_name net t)));
        let total = cs_total.(Tpn.conflict_set_of tpn t) in
        if Q.is_zero total then Q.zero
        else Q.div (Q.div (Tpn.frequency_q tpn t) total) mean)
  in
  let graph = Reach.explore ?max_states net in
  { graph; rates }

module QS = Tpan_mathkit.Sparse.Make (Q)

let steady_state c =
  let n = Reach.num_states c.graph in
  (* Generator: Q[i][j] = Σ rates of transitions i -> j; Q[i][i] = -Σ out.
     Balance: π·Q = 0 with Σ π = 1; we replace the first balance column by
     the normalization row. The balance system is as sparse as the
     reachability graph (a state has a handful of successors), so it is
     assembled directly in sparse row form — equation [j] holds column [j]
     of the generator — and never materialized densely. Duplicate (row,
     col) contributions are summed by the solver; ℚ addition is exact and
     commutative, so the entries (and hence the solution) are bit-identical
     to the old dense assembly. *)
  let rows = Array.make n [] in
  Array.iteri
    (fun i succs ->
      List.iter
        (fun (t, j) ->
          let r = c.rates.(t) in
          if not (Q.is_zero r) then begin
            rows.(j) <- (i, r) :: rows.(j);
            rows.(i) <- (i, Q.neg r) :: rows.(i)
          end)
        succs)
    c.graph.Reach.edges;
  rows.(0) <- List.init n (fun j -> (j, Q.one));
  let b = Array.make n Q.zero in
  b.(0) <- Q.one;
  match QS.solve_rows ~ncols:n rows b with
  | QS.Unique pi -> pi
  | QS.Underdetermined -> raise (Rates.Unsolvable "exponential chain is reducible")
  | QS.Inconsistent -> raise (Rates.Unsolvable "exponential chain has no stationary distribution")

let throughput c ~steady t =
  let acc = ref Q.zero in
  Array.iteri
    (fun i m ->
      if Marking.enabled c.graph.Reach.net m t then
        acc := Q.add !acc (Q.mul steady.(i) c.rates.(t)))
    c.graph.Reach.states;
  !acc

let erlang_expand ~stages tpn =
  if stages < 1 then invalid_arg "Exponential.erlang_expand: stages must be >= 1";
  if not (Tpn.is_concrete tpn) then
    raise (Tpn.Unsupported "Exponential.erlang_expand: net has symbolic times");
  let src = Tpn.net tpn in
  let b = Net.builder (Printf.sprintf "%s_erlang%d" (Net.name src) stages) in
  let init = Net.initial_marking src in
  List.iter (fun p -> ignore (Net.add_place b ~init:init.(p) (Net.place_name src p))) (Net.places src);
  let expandable t =
    stages > 1
    && List.length (Tpn.conflict_sets tpn).(Tpn.conflict_set_of tpn t) = 1
    && Q.sign (Q.add (Tpn.enabling_q tpn t) (Tpn.firing_q tpn t)) > 0
  in
  let specs = ref [] in
  List.iter
    (fun t ->
      let name = Net.trans_name src t in
      let total = Q.add (Tpn.enabling_q tpn t) (Tpn.firing_q tpn t) in
      if not (expandable t) then begin
        ignore (Net.add_transition b ~name ~inputs:(Net.inputs src t) ~outputs:(Net.outputs src t));
        specs :=
          ( name,
            Tpn.spec
              ~enabling:(Tpn.Fixed (Tpn.enabling_q tpn t))
              ~firing:(Tpn.Fixed (Tpn.firing_q tpn t))
              ~frequency:(Tpn.Freq (Tpn.frequency_q tpn t))
              () )
          :: !specs
      end
      else begin
        let stage_mean = Q.div total (Q.of_int stages) in
        let bufs =
          Array.init (stages - 1) (fun i -> Net.add_place b (Printf.sprintf "%s__s%d" name (i + 1)))
        in
        for i = 0 to stages - 1 do
          let stage_name = if i = 0 then name else Printf.sprintf "%s__%d" name i in
          let inputs = if i = 0 then Net.inputs src t else [ (bufs.(i - 1), 1) ] in
          let outputs = if i = stages - 1 then Net.outputs src t else [ (bufs.(i), 1) ] in
          ignore (Net.add_transition b ~name:stage_name ~inputs ~outputs);
          specs := (stage_name, Tpn.spec ~firing:(Tpn.Fixed stage_mean) ()) :: !specs
        done
      end)
    (Net.transitions src);
  Tpn.make (Net.build b) !specs

let mean_tokens c ~steady p =
  let acc = ref Q.zero in
  Array.iteri
    (fun i m -> acc := Q.add !acc (Q.mul steady.(i) (Q.of_int (Marking.tokens m p))))
    c.graph.Reach.states;
  !acc
