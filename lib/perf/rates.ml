module Q = Tpan_mathkit.Q
module Rf = Tpan_symbolic.Ratfun

type 'f field = {
  zero : 'f;
  one : 'f;
  is_zero : 'f -> bool;
  add : 'f -> 'f -> 'f;
  sub : 'f -> 'f -> 'f;
  mul : 'f -> 'f -> 'f;
  div : 'f -> 'f -> 'f;
  pp : Format.formatter -> 'f -> unit;
}

let q_field =
  { zero = Q.zero; one = Q.one; is_zero = Q.is_zero; add = Q.add; sub = Q.sub; mul = Q.mul;
    div = Q.div; pp = Q.pp }

let ratfun_field =
  { zero = Rf.zero; one = Rf.one; is_zero = Rf.is_zero; add = Rf.add; sub = Rf.sub;
    mul = Rf.mul; div = Rf.div; pp = Rf.pp }

type ('t, 'p, 'f) result = {
  dg : ('t, 'p) Decision_graph.t;
  field : 'f field;
  normalized_at : int;
  visit_rate : int -> 'f;
  edge_rate : ('t, 'p, 'f) rated_edge list;
  total_weight : 'f;
}

and ('t, 'p, 'f) rated_edge = {
  edge : ('t, 'p) Decision_graph.dedge;
  rate : 'f;
  weight : 'f;
}

exception Unsolvable of string

(* Strong connectivity of the decision graph (ignoring absorbed edges).
   The balance equations have a one-dimensional kernel exactly for
   irreducible chains; checking up front turns a cryptic singular-matrix
   failure into an actionable message naming the disconnected nodes. *)
let strongly_connected (dg : _ Decision_graph.t) =
  match dg.Decision_graph.nodes with
  | [] -> true
  | first :: _ ->
    let targets_of n =
      List.filter_map
        (fun (e : _ Decision_graph.dedge) ->
          match e.Decision_graph.dst with
          | Decision_graph.To d when e.Decision_graph.src = n -> Some d
          | _ -> None)
        dg.Decision_graph.edges
    in
    let sources_of n =
      List.filter_map
        (fun (e : _ Decision_graph.dedge) ->
          match e.Decision_graph.dst with
          | Decision_graph.To d when d = n -> Some e.Decision_graph.src
          | _ -> None)
        dg.Decision_graph.edges
    in
    let reach step =
      let seen = Hashtbl.create 8 in
      let rec go n =
        if not (Hashtbl.mem seen n) then begin
          Hashtbl.add seen n ();
          List.iter go (step n)
        end
      in
      go first;
      seen
    in
    let fwd = reach targets_of and bwd = reach sources_of in
    List.for_all (fun n -> Hashtbl.mem fwd n && Hashtbl.mem bwd n) dg.Decision_graph.nodes

let m_solves = Tpan_obs.Metrics.counter "perf.rates.solves"

let solve (type f) ~(field : f field) ~embed_prob ~embed_delay ?normalize_at
    (dg : ('t, 'p) Decision_graph.t) : ('t, 'p, f) result =
  Tpan_obs.Trace.with_span "rates.solve" @@ fun sp ->
  Tpan_obs.Metrics.Counter.incr m_solves;
  Tpan_obs.Trace.add_attr_int sp "nodes" (List.length dg.Decision_graph.nodes);
  let nodes = Array.of_list dg.Decision_graph.nodes in
  let k = Array.length nodes in
  if k = 0 then raise (Unsolvable "no decision nodes (deterministic system)");
  if Decision_graph.is_absorbing dg then
    raise (Unsolvable "absorbing decision graph: the system can halt, steady-state rates do not exist");
  if not (strongly_connected dg) then
    raise
      (Unsolvable
         (Printf.sprintf
            "decision graph over nodes {%s} is not strongly connected: no unique steady state"
            (String.concat ", "
               (List.map (fun n -> string_of_int (n + 1)) dg.Decision_graph.nodes))));
  let pos = Hashtbl.create 8 in
  Array.iteri (fun i n -> Hashtbl.add pos n i) nodes;
  let n0 = match normalize_at with Some n -> n | None -> nodes.(0) in
  let i0 =
    match Hashtbl.find_opt pos n0 with
    | Some i -> i
    | None -> raise (Unsolvable "normalize_at is not a decision node")
  in
  let module F = struct
    type t = f

    let zero = field.zero
    let one = field.one
    let is_zero = field.is_zero
    let add = field.add
    let sub = field.sub
    let mul = field.mul
    let div = field.div
    let pp = field.pp
  end in
  let module LS = Tpan_mathkit.Sparse.Make (F) in
  (* Balance equations v(n) = Σ_{e: dst = n} p_e · v(src e); the row for the
     normalization node is replaced by v(n0) = 1. *)
  let a = Array.init k (fun _ -> Array.make k field.zero) in
  let b = Array.make k field.zero in
  for i = 0 to k - 1 do
    if i = i0 then begin
      a.(i).(i0) <- field.one;
      b.(i) <- field.one
    end
    else begin
      a.(i).(i) <- field.one;
      List.iter
        (fun (e : _ Decision_graph.dedge) ->
          match e.dst with
          | Decision_graph.To n when n = nodes.(i) ->
            let j = Hashtbl.find pos e.src in
            a.(i).(j) <- field.sub a.(i).(j) (embed_prob e.prob)
          | _ -> ())
        dg.Decision_graph.edges
    end
  done;
  let v =
    match LS.solve a b with
    | LS.Unique v -> v
    | LS.Underdetermined ->
      raise (Unsolvable "rate equations underdetermined: decision graph not strongly connected")
    | LS.Inconsistent -> raise (Unsolvable "rate equations inconsistent")
  in
  let visit_rate n =
    match Hashtbl.find_opt pos n with
    | Some i -> v.(i)
    | None -> raise (Unsolvable "visit_rate: not a decision node")
  in
  let edge_rate =
    List.map
      (fun (e : _ Decision_graph.dedge) ->
        let r = field.mul (embed_prob e.prob) (visit_rate e.src) in
        { edge = e; rate = r; weight = field.mul r (embed_delay e.delay) })
      dg.Decision_graph.edges
  in
  let total_weight = List.fold_left (fun acc re -> field.add acc re.weight) field.zero edge_rate in
  { dg; field; normalized_at = n0; visit_rate; edge_rate; total_weight }
