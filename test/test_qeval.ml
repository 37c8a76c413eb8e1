(* Exact evaluation of rational functions: [Ratfun.eval]'s compiled
   integer program against a reference kept in this file, a
   term-by-term fold over Q that shares no code with the program.
   Outcomes compare as canonical strings, so "equal" means
   byte-identical answers. *)

module Q = Tpan_mathkit.Q
module Var = Tpan_symbolic.Var
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module M = Tpan_perf.Measures

let ref_poly env p =
  Poly.fold
    (fun m c acc ->
      let rec qpow x n = if n = 0 then Q.one else Q.mul x (qpow x (n - 1)) in
      Q.add acc (List.fold_left (fun acc (v, e) -> Q.mul acc (qpow (env v) e)) c m))
    p Q.zero

let ref_eval env r =
  let d = ref_poly env (Rf.den r) in
  if Q.is_zero d then raise Division_by_zero;
  Q.div (ref_poly env (Rf.num r)) d

(* an evaluation's outcome, exceptions included *)
let outcome f =
  match f () with
  | v -> "= " ^ Q.to_string v
  | exception Division_by_zero -> "Division_by_zero"
  | exception Not_found -> "Not_found"

let agree env r = outcome (fun () -> Rf.eval env r) = outcome (fun () -> ref_eval env r)

let env_of point v = List.assoc (Var.name v) point

let closed_form name =
  let m = Option.get (Tpan.Models.find name) in
  let g = Tpan_core.Symbolic.build (m.Tpan.Models.make []) in
  M.Symbolic.throughput (M.Symbolic.analyze g) g (List.hd m.Tpan.Models.deliveries)

let form_vars r =
  List.sort_uniq Var.compare (Poly.vars (Rf.num r) @ Poly.vars (Rf.den r))

(* Points of four kinds over a form's variables: positive integers,
   one- and two-digit decimals, values of either sign, and integers
   with one variable pinned to zero. *)
let points rng r ~per_kind =
  let vars = form_vars r in
  let draw value = List.map (fun v -> (Var.name v, value v)) vars in
  let int () = Q.of_int (1 + Random.State.int rng 200) in
  let dec () =
    Q.of_ints (1 + Random.State.int rng 2000) (if Random.State.bool rng then 10 else 100)
  in
  let signed () = Q.of_int (Random.State.int rng 41 - 20) in
  List.concat_map
    (fun _ ->
      let zeroed = List.nth vars (Random.State.int rng (List.length vars)) in
      [
        draw (fun _ -> int ());
        draw (fun _ -> dec ());
        draw (fun _ -> signed ());
        draw (fun v -> if Var.equal v zeroed then Q.zero else int ());
      ])
    (List.init per_kind Fun.id)

let test_builtin_forms () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun (name, per_kind) ->
      let r = closed_form name in
      List.iteri
        (fun i point ->
          if not (agree (env_of point) r) then
            Alcotest.failf "%s, point %d: compiled %s, reference %s" name i
              (outcome (fun () -> Rf.eval (env_of point) r))
              (outcome (fun () -> ref_eval (env_of point) r)))
        (points rng r ~per_kind))
    [ ("stopwait-sym", 6); ("handshake-sym", 6); ("abp-sym", 1) ]

(* the stop-and-wait value the paper quotes, through both paths *)
let test_paper_point () =
  let point =
    List.map
      (fun (k, v) -> (k, Q.of_decimal_string v))
      [
        ("E(t3)", "1000"); ("F(t1)", "1"); ("F(t2)", "1"); ("F(t3)", "1"); ("F(t4)", "106.7");
        ("F(t5)", "106.7"); ("F(t6)", "13.5"); ("F(t7)", "13.5"); ("F(t8)", "106.7");
        ("F(t9)", "106.7"); ("f(t4)", "0.05"); ("f(t5)", "0.95"); ("f(t8)", "0.95");
        ("f(t9)", "0.05");
      ]
  in
  let r = closed_form "stopwait-sym" in
  Alcotest.(check string) "18.05/6329.22" "= 1805/632922"
    (outcome (fun () -> Rf.eval (env_of point) r));
  Alcotest.(check bool) "reference agrees" true (agree (env_of point) r)

(* random small polynomials and quotients over three variables *)
let vx = Var.param "qx" and vy = Var.param "qy" and vz = Var.param "qz"

let gen_poly =
  QCheck2.Gen.(
    let term =
      let* n = int_range (-6) 6 in
      let* d = int_range 1 4 in
      let* ex = int_range 0 3 in
      let* ey = int_range 0 2 in
      let* ez = int_range 0 1 in
      return
        (Poly.scale (Q.of_ints n d)
           (Poly.mul (Poly.pow (Poly.var vx) ex)
              (Poly.mul (Poly.pow (Poly.var vy) ey) (Poly.pow (Poly.var vz) ez))))
    in
    let* terms = list_size (int_range 0 5) term in
    return (List.fold_left Poly.add Poly.zero terms))

let gen_point =
  QCheck2.Gen.(
    let q =
      let* n = int_range (-9) 9 in
      let* d = int_range 1 5 in
      return (Q.of_ints n d)
    in
    let* a = q in
    let* b = q in
    let* c = q in
    return [ ("qx", a); ("qy", b); ("qz", c) ])

let prop_poly =
  QCheck2.Test.make ~name:"compiled polynomial = term-by-term fold" ~count:300
    QCheck2.Gen.(pair gen_poly gen_point)
    (fun (p, point) -> agree (env_of point) (Rf.of_poly p))

let prop_ratfun =
  QCheck2.Test.make ~name:"compiled quotient = term-by-term fold" ~count:300
    QCheck2.Gen.(triple gen_poly gen_poly gen_point)
    (fun (n, d, point) -> Poly.is_zero d || agree (env_of point) (Rf.make n d))

(* The denominator is resolved and evaluated first: a point that zeroes
   it raises Division_by_zero even when it also misses a numerator-only
   variable, and the numerator's variables are never looked up. *)
let test_error_precedence () =
  let x = Poly.var vx and y = Poly.var vy in
  let r = Rf.make x (Poly.sub y Poly.one) in
  let looked_up = ref [] in
  let env point v =
    looked_up := Var.name v :: !looked_up;
    List.assoc (Var.name v) point
  in
  let run point =
    looked_up := [];
    outcome (fun () -> Rf.eval (env point) r)
  in
  Alcotest.(check string) "zero denominator, numerator variable missing" "Division_by_zero"
    (run [ ("qy", Q.one) ]);
  Alcotest.(check (list string)) "only the denominator's variable was resolved" [ "qy" ]
    !looked_up;
  Alcotest.(check string) "zero denominator, everything bound" "Division_by_zero"
    (run [ ("qx", Q.of_int 5); ("qy", Q.one) ]);
  Alcotest.(check string) "denominator variable missing" "Not_found" (run [ ("qx", Q.one) ]);
  Alcotest.(check string) "numerator variable missing" "Not_found" (run [ ("qy", Q.of_int 2) ]);
  Alcotest.(check string) "each variable resolved once" "= 6"
    (run [ ("qx", Q.of_int 6); ("qy", Q.of_int 2) ]);
  Alcotest.(check (list string)) "denominator first, once each" [ "qy"; "qx" ]
    (List.rev !looked_up);
  (* the served path's messages for both *)
  let sw = closed_form "stopwait-sym" in
  let canonical =
    Tpan.Canonical.of_tpn ((Option.get (Tpan.Models.find "stopwait-sym")).Tpan.Models.make [])
  in
  let message point =
    match Tpan.Artifact.eval canonical ~transition:"t7" ~point with
    | Ok v -> "= " ^ Q.to_string v
    | Error e -> Tpan.Error.to_string e
  in
  let zeros = List.map (fun v -> (Var.name v, Q.zero)) (form_vars sw) in
  Alcotest.(check string) "missing bindings" "point misses variable bindings: E(t3), f(t4)"
    (message (List.filter (fun (k, _) -> k <> "f(t4)" && k <> "E(t3)") zeros));
  Alcotest.(check string) "vanishing denominator"
    "the throughput denominator vanishes at this point" (message zeros)

(* [Sweep.over_expr] evaluates [point @ bindings]: the first binding of
   a name wins, so a grid coordinate shadows a fixed binding. *)
let test_first_binding_wins () =
  let r = Rf.make (Poly.var vx) (Poly.add (Poly.var vy) Poly.one) in
  Alcotest.(check string) "first binding" "= 2"
    (outcome (fun () ->
         M.Symbolic.eval_at r [ ("qx", Q.of_int 4); ("qy", Q.one); ("qx", Q.of_int 100) ]));
  let sw =
    Tpan_perf.Sweep.over_expr ~jobs:1
      ~bindings:[ ("qx", Q.of_int 100); ("qy", Q.one) ]
      ~exprs:[ ("r", r) ]
      [ { Tpan_perf.Sweep.name = "qx"; lo = Q.of_int 2; hi = Q.of_int 4; steps = 2 } ]
  in
  Alcotest.(check (list string)) "grid coordinates shadow the fixed binding" [ "1"; "2" ]
    (List.map
       (fun (row : Tpan_perf.Sweep.row) -> Q.to_string (List.assoc "r" row.values))
       sw.rows)

(* One node, its program not yet compiled, evaluated from two domains:
   whichever domain compiles first, every answer is the sequential one.
   Interning is per domain, so a node built on a fresh domain is not the
   compiled closed form this domain already holds. *)
let test_two_domains () =
  let base = closed_form "stopwait-sym" in
  let r = Domain.join (Domain.spawn (fun () -> Rf.make (Rf.num base) (Rf.den base))) in
  let words = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool) "a distinct node" true (r != base);
  let rng = Random.State.make [| 29 |] in
  let pts = points rng base ~per_kind:4 in
  let parallel =
    Tpan_par.Pool.map ~jobs:2 (fun pt -> outcome (fun () -> Rf.eval (env_of pt) r)) pts
  in
  let sequential = List.map (fun pt -> outcome (fun () -> ref_eval (env_of pt) base)) pts in
  Alcotest.(check (list string)) "same answers from both domains" sequential parallel;
  Alcotest.(check bool) "the evaluations compiled the node" true
    (Obj.reachable_words (Obj.repr r) > words)

(* A closed form reaches the cache compiled, built or replayed, so the
   byte budget weighs its program and evaluating it adds nothing. *)
let test_cached_forms_compiled () =
  let weight r = Obj.reachable_words (Obj.repr r) in
  let evaluated r =
    ignore (Rf.eval (fun _ -> Q.of_int 3) r);
    r
  in
  let m = Option.get (Tpan.Models.find "stopwait-sym") in
  let canonical = Tpan.Canonical.of_tpn (m.Tpan.Models.make []) in
  Tpan.Artifact.reset_caches ();
  (match Tpan.Artifact.closed_form canonical ~transition:"t7" with
   | Ok r ->
     let w = weight r in
     Alcotest.(check int) "built" w (weight (evaluated r))
   | Error e -> Alcotest.fail (Tpan.Error.to_string e));
  let base = closed_form "stopwait-sym" in
  let json = Tpan_cache.Codec.ratfun_to_json base in
  match
    Domain.join (Domain.spawn (fun () -> Tpan_cache.Codec.ratfun_of_json json))
  with
  | Some r ->
    let w = weight r in
    Alcotest.(check int) "replayed" w (weight (evaluated r))
  | None -> Alcotest.fail "closed form did not decode"

let suite =
  ( "qeval",
    [
      Alcotest.test_case "builtin closed forms at random points" `Quick test_builtin_forms;
      Alcotest.test_case "the paper's stop-and-wait value" `Quick test_paper_point;
      QCheck_alcotest.to_alcotest prop_poly;
      QCheck_alcotest.to_alcotest prop_ratfun;
      Alcotest.test_case "Division_by_zero before Not_found" `Quick test_error_precedence;
      Alcotest.test_case "first binding wins" `Quick test_first_binding_wins;
      Alcotest.test_case "one node from two domains" `Quick test_two_domains;
      Alcotest.test_case "cached closed forms arrive compiled" `Quick test_cached_forms_compiled;
    ] )
