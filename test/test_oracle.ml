(* The memoizing constraint oracle must agree, query for query, with the
   direct (uncached) Fourier-Motzkin procedures in Constraints — including
   on systems with equalities (exercising the substitution pass), on
   inconsistent systems (everything vacuously entailed) and on queries
   mentioning variables the system never constrains. *)

module Q = Tpan_mathkit.Q
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module C = Tpan_symbolic.Constraints
module O = Tpan_symbolic.Oracle

let qi = Q.of_int

let cmp =
  Alcotest.of_pp (fun fmt (c : C.comparison) ->
      Format.pp_print_string fmt
        (match c with C.Lt -> "Lt" | C.Eq -> "Eq" | C.Gt -> "Gt" | C.Unknown -> "Unknown"))

let e3 = Lin.var (Var.enabling "t3")
let f4 = Lin.var (Var.firing "t4")
let f5 = Lin.var (Var.firing "t5")
let f6 = Lin.var (Var.firing "t6")
let f7 = Lin.var (Var.firing "t7")
let f8 = Lin.var (Var.firing "t8")
let f9 = Lin.var (Var.firing "t9")

let sum = List.fold_left Lin.add Lin.zero

let paper =
  C.of_list
    [
      ("(1)", `Gt, e3, sum [ f5; f6; f8 ]);
      ("(3)", `Eq, f4, f5);
      ("(4)", `Eq, f9, f8);
    ]

let all_rels : C.relation list = [ `Ge; `Gt; `Eq; `Le; `Lt ]

(* Oracle and direct procedure must give identical verdicts on (a, b). *)
let agree ?(msg = "") cs o a b =
  let label s = if msg = "" then s else s ^ " (" ^ msg ^ ")" in
  Alcotest.check cmp
    (label (Format.asprintf "compare %a vs %a" Lin.pp a Lin.pp b))
    (C.compare_exprs cs a b) (O.compare_exprs o a b);
  List.iter
    (fun rel ->
      Alcotest.(check bool)
        (label (Format.asprintf "entails %a ? %a" Lin.pp a Lin.pp b))
        (C.entails cs rel a b) (O.entails o rel a b))
    all_rels

let test_paper_agreement () =
  let o = O.make paper in
  let exprs =
    [ e3; f4; f5; f6; f7; f8; f9; Lin.sub e3 f5; Lin.sub e3 (Lin.add f5 f6);
      Lin.const (qi 3); Lin.zero; Lin.add f4 f7; Lin.add f5 f7 ]
  in
  List.iter (fun a -> List.iter (fun b -> agree paper o a b) exprs) exprs;
  Alcotest.(check bool) "consistent" true (O.is_consistent o)

let test_equality_chain () =
  (* a = b, b = c: the substitution must compose transitively. *)
  let a = Lin.var (Var.firing "qa") in
  let b = Lin.var (Var.firing "qb") in
  let c = Lin.var (Var.firing "qc") in
  let cs = C.of_list [ ("e1", `Eq, a, b); ("e2", `Eq, b, c) ] in
  let o = O.make cs in
  Alcotest.check cmp "a = c through the chain" C.Eq (O.compare_exprs o a c);
  agree cs o a c;
  agree cs o (Lin.add a (Lin.const (qi 1))) c;
  (* the eliminated symbols still compare correctly against fresh ones *)
  agree ~msg:"fresh var" cs o (Lin.add a f7) (Lin.add c f7)

let test_equality_to_constant () =
  let x = Lin.var (Var.firing "qx") in
  let cs = C.of_list [ ("k", `Eq, x, Lin.const (qi 5)) ] in
  let o = O.make cs in
  Alcotest.check cmp "x = 5" C.Eq (O.compare_exprs o x (Lin.const (qi 5)));
  Alcotest.check cmp "x > 4" C.Gt (O.compare_exprs o x (Lin.const (qi 4)));
  agree cs o x (Lin.const (qi 5));
  agree cs o (Lin.scale (qi 2) x) (Lin.const (qi 10))

let test_scaled_equality () =
  (* 2x = 3y: no unit coefficient; substitution must still be exact. *)
  let x = Lin.var (Var.firing "qsx") in
  let y = Lin.var (Var.firing "qsy") in
  let cs = C.of_list [ ("s", `Eq, Lin.scale (qi 2) x, Lin.scale (qi 3) y) ] in
  let o = O.make cs in
  agree cs o (Lin.scale (qi 2) x) (Lin.scale (qi 3) y);
  agree cs o (Lin.scale (qi 4) x) (Lin.scale (qi 6) y);
  agree cs o x y

let test_inconsistent () =
  let x = Lin.var (Var.firing "qix") in
  let cs = C.of_list [ ("a", `Eq, x, Lin.const (qi 5)); ("b", `Eq, x, Lin.const (qi 6)) ] in
  let o = O.make cs in
  Alcotest.(check bool) "inconsistent detected" false (O.is_consistent o);
  Alcotest.(check bool) "direct agrees" false (C.is_consistent cs);
  (* everything is vacuously entailed, by both procedures *)
  agree cs o x (Lin.const (qi 7));
  agree cs o f5 f6;
  (* a forced-negative time symbol is also inconsistent (implicit >= 0) *)
  let neg = C.of_list [ ("n", `Eq, Lin.add x (Lin.const (qi 5)), Lin.zero) ] in
  let on = O.make neg in
  Alcotest.(check bool) "x = -5 inconsistent" false (O.is_consistent on);
  Alcotest.(check bool) "direct x = -5" false (C.is_consistent neg)

let test_witness_is_model () =
  let o = O.make paper in
  match O.witness o with
  | None -> Alcotest.fail "paper system should have a witness"
  | Some w ->
    let env v = match List.assoc_opt v w with Some q -> q | None -> Q.one in
    Alcotest.(check bool) "witness satisfies the system (equalities included)" true
      (C.satisfies env paper)

let test_memo_behaviour () =
  let o = O.make paper in
  let v1 = O.compare_exprs o f5 e3 in
  let s1 = (O.stats o).O.hits in
  let v2 = O.compare_exprs o f5 e3 in
  let s2 = (O.stats o).O.hits in
  Alcotest.check cmp "stable verdict" v1 v2;
  Alcotest.(check bool) "second query hits the memo" true (s2 > s1);
  let st = O.stats o in
  Alcotest.(check bool) "no more eliminations than the direct procedure" true
    (st.O.fm_runs <= st.O.baseline_fm_runs);
  O.reset_stats o;
  Alcotest.(check int) "reset" 0 (O.stats o).O.queries

(* ---------------- randomized agreement ---------------- *)

let pool = [| Var.firing "q0"; Var.firing "q1"; Var.firing "q2"; Var.firing "q3" |]

let gen_expr =
  QCheck2.Gen.(
    let* cs = array_size (return 4) (int_range (-2) 2) in
    let* k = int_range (-4) 8 in
    return
      (Array.to_list (Array.mapi (fun i c -> (i, c)) cs)
      |> List.fold_left
           (fun acc (i, c) -> Lin.add acc (Lin.scale (qi c) (Lin.var pool.(i))))
           (Lin.const (qi k))))

let gen_rel = QCheck2.Gen.oneofl all_rels

let gen_system =
  QCheck2.Gen.(list_size (int_range 0 4) (triple gen_rel gen_expr gen_expr))

let build_system entries =
  List.fold_left (fun cs (rel, lhs, rhs) -> C.add rel lhs rhs cs) C.empty entries

let prop_agreement =
  QCheck2.Test.make ~name:"oracle = direct FM on random systems and queries" ~count:150
    QCheck2.Gen.(triple gen_system gen_expr gen_expr)
    (fun (entries, a, b) ->
      let cs = build_system entries in
      let o = O.make cs in
      C.compare_exprs cs a b = O.compare_exprs o a b
      && List.for_all (fun rel -> C.entails cs rel a b = O.entails o rel a b) all_rels
      (* the symmetric query exercises the sign-flipped memo path *)
      && C.compare_exprs cs b a = O.compare_exprs o b a)

let prop_equality_systems =
  (* All-equality systems stress the substitution pass hardest. *)
  QCheck2.Test.make ~name:"oracle = direct FM on equality-only systems" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 3) (pair gen_expr gen_expr))
        gen_expr gen_expr)
    (fun (eqs, a, b) ->
      let cs = build_system (List.map (fun (l, r) -> (`Eq, l, r)) eqs) in
      let o = O.make cs in
      C.is_consistent cs = O.is_consistent o
      && C.compare_exprs cs a b = O.compare_exprs o a b
      && List.for_all (fun rel -> C.entails cs rel a b = O.entails o rel a b) all_rels)

let prop_witness_models =
  QCheck2.Test.make ~name:"witness points are models of their system" ~count:100
    gen_system
    (fun entries ->
      let cs = build_system entries in
      let o = O.make cs in
      match O.witness o with
      | None -> not (C.is_consistent cs)
      | Some w ->
        let env v = match List.assoc_opt v w with Some q -> q | None -> Q.one in
        C.satisfies env cs)

let suite =
  ( "oracle",
    [
      Alcotest.test_case "paper system agreement" `Quick test_paper_agreement;
      Alcotest.test_case "equality chains" `Quick test_equality_chain;
      Alcotest.test_case "equality to a constant" `Quick test_equality_to_constant;
      Alcotest.test_case "scaled equality" `Quick test_scaled_equality;
      Alcotest.test_case "inconsistent systems" `Quick test_inconsistent;
      Alcotest.test_case "witness is a model" `Quick test_witness_is_model;
      Alcotest.test_case "memoization" `Quick test_memo_behaviour;
      QCheck_alcotest.to_alcotest prop_agreement;
      QCheck_alcotest.to_alcotest prop_equality_systems;
      QCheck_alcotest.to_alcotest prop_witness_models;
    ] )
