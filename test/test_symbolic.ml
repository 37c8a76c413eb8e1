(* Tests for the symbolic expression engine: variables, affine expressions,
   polynomials, rational functions. *)

module Q = Tpan_mathkit.Q
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun

let qi = Q.of_int

(* --- Var --- *)

let test_var_interning () =
  let a = Var.firing "t5" and b = Var.firing "t5" in
  Alcotest.(check bool) "same id" true (Var.equal a b);
  Alcotest.(check bool) "distinct kinds distinct" false (Var.equal (Var.firing "t5") (Var.enabling "t5"));
  Alcotest.(check string) "E name" "E(t3)" (Var.name (Var.enabling "t3"));
  Alcotest.(check string) "F name" "F(t5)" (Var.name (Var.firing "t5"));
  Alcotest.(check string) "f name" "f(t4)" (Var.name (Var.frequency "t4"));
  Alcotest.(check string) "param name" "lambda" (Var.name (Var.param "lambda"));
  Alcotest.(check bool) "of_id roundtrip" true (Var.equal a (Var.of_id (Var.id a)));
  Alcotest.(check bool) "time kinds" true (Var.is_time (Var.enabling "x") && Var.is_time (Var.firing "x"));
  Alcotest.(check bool) "freq not time" false (Var.is_time (Var.frequency "x"))

(* --- Linexpr --- *)

let e3 = Lin.var (Var.enabling "t3")
let f5 = Lin.var (Var.firing "t5")
let f6 = Lin.var (Var.firing "t6")

let lin = Alcotest.testable Lin.pp Lin.equal

let test_linexpr_arith () =
  let a = Lin.add e3 (Lin.scale (qi 2) f5) in
  Alcotest.check lin "sub cancels" e3 (Lin.sub a (Lin.scale (qi 2) f5));
  Alcotest.check lin "neg/neg" a (Lin.neg (Lin.neg a));
  Alcotest.(check bool) "const detection" true (Lin.is_const (Lin.sub a a));
  Alcotest.(check bool) "to_q_opt" true (Q.equal (qi 0) (Option.get (Lin.to_q_opt (Lin.sub a a))));
  Alcotest.(check bool) "non-const" true (Lin.to_q_opt a = None)

let test_linexpr_eval_subst () =
  let env v =
    match Var.name v with "E(t3)" -> qi 1000 | "F(t5)" -> Q.of_decimal_string "106.7" | _ -> Q.zero
  in
  let rem = Lin.sub e3 f5 in
  Alcotest.(check bool) "eval 893.3" true (Q.equal (Q.of_decimal_string "893.3") (Lin.eval env rem));
  (* substitute E(t3) := F(t5) + F(t6) + 10 *)
  let s v = if Var.equal v (Var.enabling "t3") then Some (Lin.add (Lin.add f5 f6) (Lin.of_int 10)) else None in
  Alcotest.check lin "subst" (Lin.add f6 (Lin.of_int 10)) (Lin.subst s rem)

let test_linexpr_pp () =
  let s e = Format.asprintf "%a" Lin.pp e in
  Alcotest.(check string) "pretty" "E(t3) - F(t5)" (s (Lin.sub e3 f5));
  Alcotest.(check string) "const" "0" (s Lin.zero)

(* --- Poly --- *)

let poly = Alcotest.testable Poly.pp Poly.equal
let x = Poly.var (Var.param "x")
let y = Poly.var (Var.param "y")

let test_poly_arith () =
  let p = Poly.add (Poly.mul x y) (Poly.scale (qi 2) x) in
  Alcotest.check poly "distributes" (Poly.add (Poly.mul x x) (Poly.mul x y))
    (Poly.mul x (Poly.add x y));
  Alcotest.check poly "sub self" Poly.zero (Poly.sub p p);
  Alcotest.(check int) "degree" 2 (Poly.degree p);
  Alcotest.(check int) "degree zero" (-1) (Poly.degree Poly.zero);
  Alcotest.check poly "pow" (Poly.mul x (Poly.mul x x)) (Poly.pow x 3);
  Alcotest.(check bool) "binomial" true
    (Poly.equal
       (Poly.pow (Poly.add x y) 2)
       (Poly.add (Poly.pow x 2) (Poly.add (Poly.scale (qi 2) (Poly.mul x y)) (Poly.pow y 2))))

let test_poly_divide_exact () =
  let p = Poly.mul (Poly.add x y) (Poly.sub x y) in
  (match Poly.divide_exact p (Poly.add x y) with
   | Some q -> Alcotest.check poly "x2-y2 / (x+y)" (Poly.sub x y) q
   | None -> Alcotest.fail "expected exact division");
  (match Poly.divide_exact (Poly.add (Poly.pow x 2) Poly.one) (Poly.add x y) with
   | Some _ -> Alcotest.fail "x^2+1 not divisible by x+y"
   | None -> ());
  Alcotest.check_raises "zero divisor" Division_by_zero (fun () ->
      ignore (Poly.divide_exact x Poly.zero))

let test_poly_eval () =
  let env v = match Var.name v with "x" -> qi 3 | "y" -> qi 4 | _ -> Q.zero in
  Alcotest.(check bool) "x^2+y = 13" true
    (Q.equal (qi 13) (Rf.eval env (Rf.of_poly (Poly.add (Poly.pow x 2) y))))

let test_poly_subst () =
  (* substitute y := x+1 into x*y: expect x^2 + x *)
  let s v = if Var.equal v (Var.param "y") then Some (Poly.add x Poly.one) else None in
  Alcotest.check poly "subst" (Poly.add (Poly.pow x 2) x) (Poly.subst s (Poly.mul x y))

let test_poly_pp () =
  let s p = Format.asprintf "%a" Poly.pp p in
  Alcotest.(check string) "zero" "0" (s Poly.zero);
  Alcotest.(check string) "simple" "x^2 + 2*x*y" (s (Poly.add (Poly.pow x 2) (Poly.scale (qi 2) (Poly.mul x y))))

(* --- Ratfun --- *)

let rf = Alcotest.testable Rf.pp Rf.equal

let test_ratfun_basic () =
  let r = Rf.make (Poly.sub (Poly.pow x 2) (Poly.pow y 2)) (Poly.add x y) in
  Alcotest.check rf "auto-cancel" (Rf.of_poly (Poly.sub x y)) r;
  Alcotest.check rf "a/b * b/a = 1" Rf.one
    (Rf.mul (Rf.make x y) (Rf.make y x));
  Alcotest.check_raises "zero den" Division_by_zero (fun () -> ignore (Rf.make x Poly.zero))

let test_ratfun_field_laws () =
  let a = Rf.make x (Poly.add x y) in
  let b = Rf.make y (Poly.add x y) in
  (* the stop-and-wait branching probabilities sum to one *)
  Alcotest.check rf "p + q = 1" Rf.one (Rf.add a b);
  Alcotest.check rf "a - a = 0" Rf.zero (Rf.sub a a);
  Alcotest.check rf "a / a = 1" Rf.one (Rf.div a a);
  Alcotest.check rf "inv inv" a (Rf.inv (Rf.inv a));
  Alcotest.check rf "distributes" (Rf.add (Rf.mul a a) (Rf.mul a b)) (Rf.mul a (Rf.add a b))

let test_ratfun_eval () =
  let env v = match Var.name v with "x" -> qi 1 | "y" -> qi 19 | _ -> Q.zero in
  let p_loss = Rf.make x (Poly.add x y) in
  Alcotest.(check bool) "eval 0.05" true (Q.equal (Q.of_ints 1 20) (Rf.eval env p_loss));
  Alcotest.check_raises "den vanishes" Division_by_zero (fun () ->
      ignore (Rf.eval (fun _ -> Q.zero) p_loss))

let test_ratfun_subst () =
  let r = Rf.make x y in
  let s v = if Var.equal v (Var.param "y") then Some (Poly.scale (qi 2) x) else None in
  Alcotest.check rf "subst y:=2x" (Rf.of_q (Q.of_ints 1 2)) (Rf.subst s r)

(* Properties: field laws on random small rational functions. *)

let gen_poly =
  QCheck2.Gen.(
    let* c1 = int_range (-3) 3 in
    let* c2 = int_range (-3) 3 in
    let* c3 = int_range (-3) 3 in
    let* e1 = int_range 0 2 in
    let* e2 = int_range 0 2 in
    return
      (Poly.add
         (Poly.scale (qi c1) (Poly.mul (Poly.pow x e1) (Poly.pow y e2)))
         (Poly.add (Poly.scale (qi c2) x) (Poly.const (qi c3)))))

let gen_rf =
  QCheck2.Gen.(
    let* n = gen_poly in
    let* d = gen_poly in
    return (if Poly.is_zero d then Rf.of_poly n else Rf.make n d))

let prop_rf_add_comm =
  QCheck2.Test.make ~name:"ratfun add commutative" ~count:200
    QCheck2.Gen.(pair gen_rf gen_rf)
    (fun (a, b) -> Rf.equal (Rf.add a b) (Rf.add b a))

let prop_rf_mul_assoc =
  QCheck2.Test.make ~name:"ratfun mul associative" ~count:150
    QCheck2.Gen.(triple gen_rf gen_rf gen_rf)
    (fun (a, b, c) -> Rf.equal (Rf.mul a (Rf.mul b c)) (Rf.mul (Rf.mul a b) c))

let prop_rf_div_mul_cancel =
  QCheck2.Test.make ~name:"(a/b)*b = a" ~count:200
    QCheck2.Gen.(pair gen_rf gen_rf)
    (fun (a, b) -> Rf.is_zero b || Rf.equal a (Rf.mul (Rf.div a b) b))

let prop_poly_divide_exact_roundtrip =
  QCheck2.Test.make ~name:"p*d / d = p" ~count:200
    QCheck2.Gen.(pair gen_poly gen_poly)
    (fun (p, d) ->
      Poly.is_zero d
      ||
      match Poly.divide_exact (Poly.mul p d) d with
      | Some q -> Poly.equal p q
      | None -> false)

(* --- multivariate GCD and canonical reduction --- *)

let test_poly_gcd () =
  let q2 = Q.of_int 2 in
  let a = Poly.mul (Poly.pow (Poly.add x y) 2) (Poly.sub x y) in
  let b = Poly.mul (Poly.add x y) (Poly.pow x 2) in
  Alcotest.check poly "common factor" (Poly.add x y) (Poly.gcd a b);
  (* univariate *)
  let u = Poly.sub (Poly.pow x 2) Poly.one in
  let v = Poly.add (Poly.pow x 2) (Poly.add (Poly.scale q2 x) Poly.one) in
  Alcotest.check poly "x+1" (Poly.add x Poly.one) (Poly.gcd u v);
  (* coprime *)
  Alcotest.check poly "coprime" Poly.one (Poly.gcd (Poly.add x Poly.one) (Poly.add y Poly.one));
  (* monomials *)
  let z = Poly.var (Var.param "z") in
  Alcotest.check poly "monomial gcd" (Poly.mul x y)
    (Poly.gcd (Poly.mul x (Poly.mul y z)) (Poly.mul x (Poly.pow y 2)));
  (* zero cases *)
  Alcotest.check poly "gcd 0 p = monic p" x (Poly.gcd Poly.zero (Poly.scale (qi 3) x));
  Alcotest.check poly "gcd 0 0 = 0" Poly.zero (Poly.gcd Poly.zero Poly.zero);
  (* constants *)
  Alcotest.check poly "const gcd" Poly.one (Poly.gcd (Poly.of_int 6) (Poly.of_int 4))

let prop_gcd_divides_both =
  QCheck2.Test.make ~name:"gcd divides both arguments" ~count:150
    QCheck2.Gen.(pair gen_poly gen_poly)
    (fun (a, b) ->
      let g = Poly.gcd a b in
      if Poly.is_zero g then Poly.is_zero a && Poly.is_zero b
      else
        Poly.divide_exact a g <> None && Poly.divide_exact b g <> None)

let prop_gcd_of_products =
  (* gcd(c*a, c*b) is divisible by (monic) c *)
  QCheck2.Test.make ~name:"common factor is found" ~count:100
    QCheck2.Gen.(triple gen_poly gen_poly gen_poly)
    (fun (a, b, c) ->
      if Poly.is_zero c then true
      else begin
        let g = Poly.gcd (Poly.mul c a) (Poly.mul c b) in
        Poly.is_zero g || Poly.divide_exact g (snd (Poly.monic_factor c)) <> None
      end)

let test_ratfun_reduce () =
  (* build an unreduced fraction through raw polynomials *)
  let n = Poly.mul (Poly.add x y) x in
  let d = Poly.mul (Poly.add x y) y in
  let r = Rf.make n d in
  let reduced = Rf.reduce r in
  Alcotest.check rf "reduce cancels" (Rf.reduce (Rf.make x y)) reduced;
  Alcotest.(check bool) "same value" true (Rf.equal r reduced);
  (* num/den of the reduced form are coprime *)
  Alcotest.check poly "coprime after reduce" Poly.one
    (Poly.gcd (Rf.num reduced) (Rf.den reduced));
  (* printing shows lowest terms whatever the representation *)
  Alcotest.(check string) "pp prints lowest terms" (Format.asprintf "%a" Rf.pp reduced)
    (Format.asprintf "%a" Rf.pp r)

let test_throughput_is_canonical () =
  (* the flagship payoff: the general stop-and-wait throughput reduces to
     f(t8)f(t5) over a 15-term denominator *)
  let module SG = Tpan_core.Symbolic in
  let module M = Tpan_perf.Measures in
  let module SW = Tpan_protocols.Stopwait in
  let g = SG.build (SW.symbolic ()) in
  let res = M.Symbolic.analyze g in
  let thr = M.Symbolic.throughput res g SW.t_process_ack in
  let f n = Poly.var (Var.frequency n) in
  Alcotest.check poly "numerator = f(t8)f(t5)" (Poly.mul (f "t8") (f "t5")) (Rf.num thr);
  Alcotest.(check int) "denominator has 15 terms" 15 (Poly.size (Rf.den thr));
  Alcotest.check poly "fully reduced" Poly.one (Poly.gcd (Rf.num thr) (Rf.den thr))

(* Under an expired deadline, ℚ[x] arithmetic stops at its next
   checkpoint: once per pseudo-remainder step in [gcd], every 64th outer
   term in [mul]. With no context both answer as before. *)
let test_poly_deadline () =
  let a = Poly.mul (Poly.pow (Poly.add x y) 2) (Poly.sub x y) in
  let b = Poly.mul (Poly.add x y) (Poly.pow x 2) in
  let z = Poly.var (Var.param "z") in
  let big = Poly.pow (Poly.add (Poly.add x y) (Poly.add z Poly.one)) 6 in
  Alcotest.(check int) "an 84-term factor" 84 (Poly.size big);
  let cancelled f =
    let ctx = Tpan_obs.Context.make ~deadline:1e-9 () in
    match Tpan_obs.Context.with_ctx ctx f with
    | (_ : Poly.t) -> false
    | exception Tpan_obs.Cancel.Cancelled (Tpan_obs.Cancel.Deadline _) -> true
  in
  Alcotest.(check bool) "gcd raises Cancelled" true (cancelled (fun () -> Poly.gcd a b));
  Alcotest.(check bool) "mul raises Cancelled" true (cancelled (fun () -> Poly.mul big x));
  Alcotest.check poly "gcd without a context" (Poly.add x y) (Poly.gcd a b);
  Alcotest.(check int) "mul without a context" 84 (Poly.size (Poly.mul big x))

let suite =
  ( "symbolic",
    [
      Alcotest.test_case "var interning" `Quick test_var_interning;
      Alcotest.test_case "linexpr arithmetic" `Quick test_linexpr_arith;
      Alcotest.test_case "linexpr eval/subst" `Quick test_linexpr_eval_subst;
      Alcotest.test_case "linexpr pp" `Quick test_linexpr_pp;
      Alcotest.test_case "poly arithmetic" `Quick test_poly_arith;
      Alcotest.test_case "poly exact division" `Quick test_poly_divide_exact;
      Alcotest.test_case "poly eval" `Quick test_poly_eval;
      Alcotest.test_case "poly subst" `Quick test_poly_subst;
      Alcotest.test_case "poly pp" `Quick test_poly_pp;
      Alcotest.test_case "ratfun basics" `Quick test_ratfun_basic;
      Alcotest.test_case "ratfun field laws" `Quick test_ratfun_field_laws;
      Alcotest.test_case "ratfun eval" `Quick test_ratfun_eval;
      Alcotest.test_case "ratfun subst" `Quick test_ratfun_subst;
      QCheck_alcotest.to_alcotest prop_rf_add_comm;
      QCheck_alcotest.to_alcotest prop_rf_mul_assoc;
      QCheck_alcotest.to_alcotest prop_rf_div_mul_cancel;
      QCheck_alcotest.to_alcotest prop_poly_divide_exact_roundtrip;
      Alcotest.test_case "poly gcd" `Quick test_poly_gcd;
      QCheck_alcotest.to_alcotest prop_gcd_divides_both;
      QCheck_alcotest.to_alcotest prop_gcd_of_products;
      Alcotest.test_case "ratfun reduce" `Quick test_ratfun_reduce;
      Alcotest.test_case "throughput expression is canonical" `Quick test_throughput_is_canonical;
      Alcotest.test_case "poly gcd and mul honour a deadline" `Quick test_poly_deadline;
    ] )
