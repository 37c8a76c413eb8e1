module Q = Tpan_mathkit.Q
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun

exception Unsolvable of string

type 'f field = {
  zero : 'f;
  add : 'f -> 'f -> 'f;
  mul : 'f -> 'f -> 'f;
  div : 'f -> 'f -> 'f;
  balance : nodes:int -> root:int -> (int * int * 'f) array -> 'f array * 'f array;
}

module QS = Tpan_mathkit.Sparse.Make (Q)

(* Balance equations v(n) = Σ_{e: dst = n} p_e · v(src e) in row form,
   eliminated over ℚ; the row for the normalization node is replaced by
   v(n0) = 1. *)
let eliminate ~nodes:k ~root:i0 arcs =
  let rows = Array.init k (fun i -> [ (i, Q.one) ]) in
  Array.iter
    (fun (src, dst, p) -> if dst <> i0 then rows.(dst) <- (src, Q.neg p) :: rows.(dst))
    arcs;
  let b = Array.init k (fun i -> if i = i0 then Q.one else Q.zero) in
  let v =
    match QS.solve_rows ~ncols:k rows b with
    | QS.Unique v -> v
    | QS.Underdetermined ->
      raise (Unsolvable "rate equations underdetermined: decision graph not strongly connected")
    | QS.Inconsistent -> raise (Unsolvable "rate equations inconsistent")
  in
  (v, Array.map (fun (src, _, p) -> Q.mul p v.(src)) arcs)

module FF = Tpan_mathkit.Bareiss.Make (Poly)

let quo p d =
  match Poly.divide_exact p d with
  | Some q -> q
  | None -> failwith "Rates: inexact division in the fraction-free solve"

(* The same equations over ℚ[x] (DESIGN §11). Each node's
   out-probabilities go over one denominator, p_e = w_e / D_n, so row n
   reads D_n·y_n − Σ_{e→n} w_e·y_src(e) = 0: a graph Laplacian, whose
   fraction-free solution y_n is the in-tree sum at n (the Markov chain
   tree theorem). Then v(n) = D_n·y_n / C and r_e = w_e·y_src / C with
   one denominator C = D_{n0}·y_{n0} shared by every rate. *)
let fraction_free ~nodes:k ~root:i0 arcs =
  let den = Array.make k Poly.zero in
  Array.iter
    (fun (src, _, p) ->
      let d = Rf.den p and dn = den.(src) in
      (* one conflict set per node: its probabilities share a hash-consed
         denominator, and the lcm is a pointer test *)
      if Poly.is_zero dn then den.(src) <- d
      else if not (Poly.equal dn d) then den.(src) <- Poly.mul dn (quo d (Poly.gcd dn d)))
    arcs;
  let w =
    Array.map
      (fun (src, _, p) ->
        if Poly.equal den.(src) (Rf.den p) then Rf.num p
        else Poly.mul (Rf.num p) (quo den.(src) (Rf.den p)))
      arcs
  in
  let a = Array.init k (fun i -> Array.init k (fun j -> if i = j then den.(i) else Poly.zero)) in
  let b = Array.make k Poly.zero in
  a.(i0).(i0) <- Poly.one;
  b.(i0) <- Poly.one;
  Array.iteri
    (fun e (src, dst, _) -> if dst <> i0 then a.(dst).(src) <- Poly.sub a.(dst).(src) w.(e))
    arcs;
  let y =
    match FF.solve a b with
    | Some (y, _) -> y
    | None ->
      raise (Unsolvable "rate equations underdetermined: decision graph not strongly connected")
  in
  let c = Poly.mul den.(i0) y.(i0) in
  ( Array.init k (fun i -> Rf.make (Poly.mul den.(i) y.(i)) c),
    Array.mapi (fun e (src, _, _) -> Rf.make (Poly.mul w.(e) y.(src)) c) arcs )

let q_field = { zero = Q.zero; add = Q.add; mul = Q.mul; div = Q.div; balance = eliminate }

let ratfun_field =
  { zero = Rf.zero; add = Rf.add; mul = Rf.mul; div = Rf.div; balance = fraction_free }

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

let solve ~(field : 'f field) ~embed_prob ~embed_delay ?normalize_at
    (dg : ('t, 'p) Decision_graph.t) : ('t, 'p, 'f) result =
  Tpan_obs.Trace.with_span "rates.solve" @@ fun sp ->
  Tpan_obs.Metrics.Counter.incr m_solves;
  Tpan_obs.Trace.add_attr_int sp "nodes" (List.length dg.Decision_graph.nodes);
  let nodes = Array.of_list dg.Decision_graph.nodes in
  let k = Array.length nodes in
  if k = 0 then raise (Unsolvable "the system terminates: no steady state");
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
  let arcs =
    Array.of_list
      (List.map
         (fun (e : _ Decision_graph.dedge) ->
           match e.dst with
           | Decision_graph.To n -> (Hashtbl.find pos e.src, Hashtbl.find pos n, embed_prob e.prob)
           | Decision_graph.Absorbed _ -> assert false (* rejected above *))
         dg.Decision_graph.edges)
  in
  let v, r = field.balance ~nodes:k ~root:i0 arcs in
  let visit_rate n =
    match Hashtbl.find_opt pos n with
    | Some i -> v.(i)
    | None -> raise (Unsolvable "visit_rate: not a decision node")
  in
  let edge_rate =
    List.mapi
      (fun i (e : _ Decision_graph.dedge) ->
        { edge = e; rate = r.(i); weight = field.mul r.(i) (embed_delay e.delay) })
      dg.Decision_graph.edges
  in
  let total_weight = List.fold_left (fun acc re -> field.add acc re.weight) field.zero edge_rate in
  { dg; field; normalized_at = n0; visit_rate; edge_rate; total_weight }
