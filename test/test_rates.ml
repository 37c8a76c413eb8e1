(* Symbolic rates over ℚ[x]: [Rates.ratfun_field]'s fraction-free solve
   against a reference kept in this file, Gaussian elimination over
   ℚ(x) that shares no solving code with it; and the properties the
   polynomial form buys — closed forms in lowest terms at any size, and
   throughput ratios free of delay symbols. The nets are the five
   symbolic builtins and generated stop-and-wait-family nets, some with
   6 and 8 frequency symbols; the node-set guard adds the concrete
   builtins. *)

module Q = Tpan_mathkit.Q
module Var = Tpan_symbolic.Var
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn
module SG = Tpan_core.Symbolic
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures

module LS = Tpan_mathkit.Linsolve.Make (struct
  type t = Rf.t

  let zero = Rf.zero
  let one = Rf.one
  let is_zero = Rf.is_zero
  let add = Rf.add
  let sub = Rf.sub
  let mul = Rf.mul
  let div = Rf.div
  let pp = Rf.pp
end)

(* v(n) = Σ_{e→n} p_e·v(src e) with v(root) = 1, eliminated in ℚ(x) *)
let eliminate ~nodes:k ~root arcs =
  let a = Array.init k (fun i -> Array.init k (fun j -> if i = j then Rf.one else Rf.zero)) in
  let b = Array.init k (fun i -> if i = root then Rf.one else Rf.zero) in
  Array.iter
    (fun (src, dst, p) -> if dst <> root then a.(dst).(src) <- Rf.sub a.(dst).(src) p)
    arcs;
  match LS.solve a b with
  | LS.Unique v -> (v, Array.map (fun (src, _, p) -> Rf.mul p v.(src)) arcs)
  | LS.Underdetermined | LS.Inconsistent -> Alcotest.fail "reference: singular system"

let reference = { Rates.ratfun_field with Rates.balance = eliminate }

let builtins = [ "stopwait-sym"; "abp-sym"; "handshake-sym"; "scheduler-sym"; "ring-sym" ]

let builtin name =
  let m = Option.get (Tpan.Models.find name) in
  (name, m.Tpan.Models.make [])

(* Each net with its symbolic TRG, built once for all the tests here:
   the five builtins, then Gen seeds 100000–100199. *)
let corpus =
  lazy
    (List.map
       (fun (name, tpn) -> (name, tpn, SG.build tpn))
       (List.map builtin builtins
       @ List.init 200 (fun i ->
             let c = Tpan_check.Gen.case ~seed:(100000 + i) in
             (Printf.sprintf "gen %d" (100000 + i), c.Tpan_check.Gen.tpn))))

let nets ~generated =
  List.filteri (fun i _ -> i < List.length builtins + generated) (Lazy.force corpus)

let embed_delay e = Rf.of_poly (Poly.of_linexpr e)

let solve field dg = Rates.solve ~field ~embed_prob:Fun.id ~embed_delay dg

let decision_graph g = DG.of_graph ~add:Tpan_symbolic.Linexpr.add ~mul:Rf.mul g

(* A node whose out-probabilities do not share a denominator, as when
   two conflicts resolve in one step: 1/2, x/(2(x+y)) and y/(2(x+y)).
   The fraction-free solve must take their lcm. *)
let unshared =
  let x = Rf.var (Var.frequency "x") and y = Rf.var (Var.frequency "y") in
  let half = Rf.of_q (Q.of_ints 1 2) in
  let edge src dst prob delay =
    { DG.src; dst = DG.To dst; prob; delay = Tpan_symbolic.Linexpr.var (Var.firing delay);
      path = []; fired = []; completed = [] }
  in
  let over = Rf.add x y in
  {
    DG.nodes = [ 0; 1 ];
    edges =
      [
        edge 0 0 half "a";
        edge 0 1 (Rf.mul half (Rf.div x over)) "b";
        edge 0 1 (Rf.mul half (Rf.div y over)) "c";
        edge 1 0 (Rf.div x over) "d";
        edge 1 1 (Rf.div y over) "a";
      ];
  }

let test_matches_elimination () =
  List.iter
    (fun (name, dg) ->
      let ff = solve Rates.ratfun_field dg and el = solve reference dg in
      let same what a b =
        if not (Rf.equal a b) then
          Alcotest.failf "%s: %s differs: %a vs %a" name what Rf.pp a Rf.pp b
      in
      List.iter
        (fun n -> same (Printf.sprintf "visit rate of %d" n) (ff.Rates.visit_rate n)
            (el.Rates.visit_rate n))
        dg.DG.nodes;
      List.iter2
        (fun (a : _ Rates.rated_edge) (b : _ Rates.rated_edge) ->
          same "edge rate" a.Rates.rate b.Rates.rate)
        ff.Rates.edge_rate el.Rates.edge_rate;
      same "total weight" ff.Rates.total_weight el.Rates.total_weight)
    (("unshared denominators", unshared)
    :: List.map (fun (name, _, g) -> (name, decision_graph g)) (nets ~generated:200))

(* Every transition's closed form, with its name. *)
let closed_forms tpn g =
  let res = M.Symbolic.analyze g in
  let net = Tpn.net tpn in
  List.map
    (fun t ->
      let name = Net.trans_name net t in
      (name, M.Symbolic.throughput res g name))
    (Net.transitions net)

let test_lowest_terms () =
  List.iter
    (fun (net, tpn, g) ->
      List.iter
        (fun (t, thr) ->
          let n = Rf.num thr and d = Rf.den thr in
          if not (Poly.equal (Poly.gcd n d) Poly.one) then
            Alcotest.failf "%s: throughput(%s) is not in lowest terms" net t;
          if not (Q.equal (fst (Poly.monic_factor d)) Q.one) then
            Alcotest.failf "%s: throughput(%s) has a denominator that is not monic" net t)
        (closed_forms tpn g))
    (nets ~generated:200)

(* The paper's timings and 5 % losses, on the symbolic ABP's symbols. *)
let abp_point =
  [
    ("E(to)", "1000"); ("F(send)", "1"); ("F(pkt)", "106.7"); ("F(proc)", "13.5");
    ("F(ack)", "106.7"); ("f(lp)", "0.05"); ("f(dp)", "0.95"); ("f(la)", "0.05");
    ("f(da)", "0.95");
  ]

let test_abp_pinned () =
  let _, tpn = builtin "abp-sym" in
  let thr = List.assoc "recv_new0" (closed_forms tpn (SG.build tpn)) in
  Alcotest.(check string) "throughput(recv_new0)"
    "throughput(recv_new0) = (1/2*f(dp)*f(da)) / (E(to)*f(lp)*f(la) + E(to)*f(lp)*f(da) \
     + E(to)*f(dp)*f(la) + 2*F(send)*f(lp)*f(la) + 2*F(send)*f(lp)*f(da) + \
     2*F(send)*f(dp)*f(la) + F(send)*f(dp)*f(da) + F(pkt)*f(dp)*f(da) + \
     2*F(proc)*f(dp)*f(da) + F(ack)*f(dp)*f(da))"
    (Format.asprintf "throughput(recv_new0) = %a" Rf.pp thr);
  Alcotest.(check int) "terms" 11 (Poly.size (Rf.num thr) + Poly.size (Rf.den thr));
  let point = List.map (fun (k, v) -> (k, Q.of_decimal_string v)) abp_point in
  Alcotest.(check string) "at the paper's point" "1805/1262234"
    (Q.to_string (M.Symbolic.eval_at thr point))

(* thr(t) = Σ_e y_src·w_e·c_t(e) / Σ_e y_src·w_e·d_e: only the common
   denominator carries delays, so a ratio of two throughputs has none
   (the Gaujal–Haar–Mairesse property), checked on the symbols alone. *)
let test_delay_free_ratios () =
  List.iter
    (fun (net, tpn, g) ->
      let forms = List.filter (fun (_, thr) -> not (Rf.is_zero thr)) (closed_forms tpn g) in
      List.iter
        (fun (a, ta) ->
          List.iter
            (fun (b, tb) ->
              let r = Rf.reduce (Rf.div ta tb) in
              match List.filter Var.is_time (Poly.vars (Rf.num r) @ Poly.vars (Rf.den r)) with
              | [] -> ()
              | v :: _ -> Alcotest.failf "%s: thr(%s)/thr(%s) mentions %s" net a b (Var.name v))
            forms)
        forms)
    (nets ~generated:50)

(* A renewal node is added only on a decision-free cycle, and no net the
   rate solve answered before renewal nodes existed has one: its nodes are
   its branching states, so its decision graph and output keep their bytes.
   Checked on every builtin but the pipeline and on Gen seeds
   100000–100199. *)
let test_nodes_are_branching_states () =
  let check name g nodes =
    Alcotest.(check (list int)) name (Tpan_core.Semantics.branching_states g) nodes
  in
  List.iter (fun (name, _, g) -> check name g (decision_graph g).DG.nodes) (nets ~generated:200);
  List.iter
    (fun (m : Tpan.Models.t) ->
      let tpn = m.Tpan.Models.make [] in
      if Tpn.is_concrete tpn && m.Tpan.Models.name <> "pipeline" then
        let g = Tpan_core.Concrete.build tpn in
        check m.Tpan.Models.name g (DG.of_graph ~add:Q.add ~mul:Q.mul g).DG.nodes)
    Tpan.Models.all

let suite =
  ( "rates",
    [
      Alcotest.test_case "fraction-free = elimination over Q(x)" `Quick test_matches_elimination;
      Alcotest.test_case "closed forms in lowest terms" `Quick test_lowest_terms;
      Alcotest.test_case "ABP closed form, 11 terms" `Quick test_abp_pinned;
      Alcotest.test_case "throughput ratios are delay-free" `Quick test_delay_free_ratios;
      Alcotest.test_case "nodes = branching states off decision-free cycles" `Quick
        test_nodes_are_branching_states;
    ] )
