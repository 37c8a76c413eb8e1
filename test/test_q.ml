(* Unit and property tests for Tpan_mathkit.Q. *)

module B = Tpan_mathkit.Bigint
module Q = Tpan_mathkit.Q

let q = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check q

let test_normalization () =
  check_q "6/4 = 3/2" (Q.of_ints 3 2) (Q.of_ints 6 4);
  check_q "neg den" (Q.of_ints (-1) 2) (Q.of_ints 1 (-2));
  check_q "zero" Q.zero (Q.of_ints 0 17);
  Alcotest.(check string) "canonical print" "3/2" (Q.to_string (Q.of_ints 6 4));
  Alcotest.(check string) "integer print" "5" (Q.to_string (Q.of_ints 10 2))

let test_arith () =
  check_q "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "1/2 - 1/3" (Q.of_ints 1 6) (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "2/3 * 3/4" (Q.of_ints 1 2) (Q.mul (Q.of_ints 2 3) (Q.of_ints 3 4));
  check_q "div" (Q.of_ints 8 9) (Q.div (Q.of_ints 2 3) (Q.of_ints 3 4));
  check_q "inv" (Q.of_ints (-3) 2) (Q.inv (Q.of_ints (-2) 3));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Q.div Q.one Q.zero))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (Q.of_ints 1 3) (Q.of_ints 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.compare (Q.of_ints (-1) 2) (Q.of_ints 1 3) < 0);
  check_q "min" (Q.of_ints 1 3) (Q.min (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "max" (Q.of_ints 1 2) (Q.max (Q.of_ints 1 2) (Q.of_ints 1 3))

let test_decimal_parse () =
  check_q "106.7" (Q.of_ints 1067 10) (Q.of_decimal_string "106.7");
  check_q "-0.05" (Q.of_ints (-1) 20) (Q.of_decimal_string "-0.05");
  check_q "plain int" (Q.of_int 42) (Q.of_decimal_string "42");
  check_q "fraction" (Q.of_ints 1067 10) (Q.of_decimal_string "1067/10");
  check_q ".5 style" (Q.of_ints 1 2) (Q.of_decimal_string "0.50");
  List.iter
    (fun s ->
      Alcotest.check_raises ("sign after the point: " ^ s)
        (Invalid_argument "Q.of_decimal_string: fraction part must be digits") (fun () ->
          ignore (Q.of_decimal_string s)))
    [ "1.-5"; "1.+5"; "-1.-5"; "0.5-" ];
  Alcotest.check_raises "empty" (Invalid_argument "Q.of_decimal_string: empty") (fun () ->
      ignore (Q.of_decimal_string "  "))

let test_pp_decimal () =
  let s q' = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q' in
  Alcotest.(check string) "106.7" "106.7" (s (Q.of_decimal_string "106.7"));
  Alcotest.(check string) "exact int" "1000" (s (Q.of_int 1000));
  Alcotest.(check string) "negative" "-0.05" (s (Q.of_decimal_string "-0.05"));
  Alcotest.(check string) "rounded" "0.333333" (s (Q.of_ints 1 3));
  Alcotest.(check string) "trim zeros" "2.5" (s (Q.of_ints 5 2))

let test_to_float () =
  Alcotest.(check (float 1e-12)) "106.7" 106.7 (Q.to_float (Q.of_decimal_string "106.7"))

(* Properties *)

let gen_q =
  QCheck2.Gen.(
    let* n = int_range (-10000) 10000 in
    let* d = int_range 1 10000 in
    return (Q.of_ints n d))

let prop_add_assoc =
  QCheck2.Test.make ~name:"add associative" ~count:300
    QCheck2.Gen.(triple gen_q gen_q gen_q)
    (fun (a, b, c) -> Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c))

let prop_mul_distributes =
  QCheck2.Test.make ~name:"mul distributes over add" ~count:300
    QCheck2.Gen.(triple gen_q gen_q gen_q)
    (fun (a, b, c) -> Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_inv_involutive =
  QCheck2.Test.make ~name:"double inverse" ~count:300 gen_q (fun a ->
      Q.is_zero a || Q.equal a (Q.inv (Q.inv a)))

let prop_compare_antisym =
  QCheck2.Test.make ~name:"compare antisymmetric" ~count:300
    QCheck2.Gen.(pair gen_q gen_q)
    (fun (a, b) -> Q.compare a b = -Q.compare b a)

let prop_sub_add_cancel =
  QCheck2.Test.make ~name:"a - b + b = a" ~count:300
    QCheck2.Gen.(pair gen_q gen_q)
    (fun (a, b) -> Q.equal a (Q.add (Q.sub a b) b))

(* The small/large boundary: a rational over big multiples reduces to the
   same canonical value, hash and text as the small one. *)

let gen_edge =
  QCheck2.Gen.(
    let near c = map (fun d -> c + d) (int_range (-4) 4) in
    oneof
      [
        near 0;
        near (1 lsl 31);
        near (-(1 lsl 31));
        map (fun d -> max_int - d) (int_range 0 4);
        map (fun d -> min_int + d) (int_range 0 4);
        int;
      ])

(* 2^64 + 1, built by doubling so that no product is involved *)
let big_k =
  let rec double x n = if n = 0 then x else double (B.add x x) (n - 1) in
  B.add (double B.one 64) B.one

let prop_edge_make =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"boundary make over big multiples is canonical" ~count:500
       ~long_factor:100 ~print:QCheck2.Print.(pair int int)
       QCheck2.Gen.(pair gen_edge gen_edge)
       (fun (n, d) ->
         d = 0
         ||
         let x = Q.make (B.of_int n) (B.of_int d) in
         let xk = Q.make (B.mul (B.of_int n) big_k) (B.mul (B.of_int d) big_k) in
         Q.equal x xk && Q.hash x = Q.hash xk && Q.to_string x = Q.to_string xk))

let prop_edge_add_cancel =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"boundary a + b - b = a" ~count:500 ~long_factor:100
       ~print:QCheck2.Print.(quad int int int int)
       QCheck2.Gen.(quad gen_edge gen_edge gen_edge gen_edge)
       (fun (n, d, n', d') ->
         d = 0 || d' = 0
         ||
         let a = Q.make (B.of_int n) (B.of_int d) and b = Q.make (B.of_int n') (B.of_int d') in
         Q.equal a (Q.sub (Q.add a b) b) && Q.hash a = Q.hash (Q.sub (Q.add a b) b)))

let test_big_multiples_reduce () =
  let k = B.mul big_k (B.pow (B.of_int 10) 30) in
  let x = Q.make (B.mul (B.of_int 3) k) (B.mul (B.of_int 5) k) in
  check_q "3k/5k" (Q.of_ints 3 5) x;
  Alcotest.(check int) "same hash" (Q.hash (Q.of_ints 3 5)) (Q.hash x);
  Alcotest.(check string) "same text" "3/5" (Q.to_string x)

(* Values computed by the limb-only representation of the numerator and
   denominator. *)
let test_pinned_hashes () =
  List.iter
    (fun (s, h) -> Alcotest.(check int) s h (Q.hash (Q.of_decimal_string s)))
    [ ("1/20", 6166419); ("106.7", 76094943); ("1805/486672", 125375319) ]

let suite =
  ( "rationals",
    [
      Alcotest.test_case "normalization" `Quick test_normalization;
      Alcotest.test_case "arithmetic" `Quick test_arith;
      Alcotest.test_case "compare/min/max" `Quick test_compare;
      Alcotest.test_case "decimal parsing" `Quick test_decimal_parse;
      Alcotest.test_case "decimal printing" `Quick test_pp_decimal;
      Alcotest.test_case "to_float" `Quick test_to_float;
      QCheck_alcotest.to_alcotest prop_add_assoc;
      QCheck_alcotest.to_alcotest prop_mul_distributes;
      QCheck_alcotest.to_alcotest prop_inv_involutive;
      QCheck_alcotest.to_alcotest prop_compare_antisym;
      QCheck_alcotest.to_alcotest prop_sub_add_cancel;
      prop_edge_make;
      prop_edge_add_cancel;
      Alcotest.test_case "big multiples reduce to small" `Quick test_big_multiples_reduce;
      Alcotest.test_case "pinned hashes" `Quick test_pinned_hashes;
    ] )
