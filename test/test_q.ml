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
    ] )
