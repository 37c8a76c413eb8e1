(* Unit and property tests for Tpan_mathkit.Bigint. *)

module B = Tpan_mathkit.Bigint

let b = Alcotest.testable B.pp B.equal

let check_b = Alcotest.check b

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1 lsl 40; -(1 lsl 40); max_int; min_int ]

let test_to_string () =
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "one" "1" (B.to_string B.one);
  Alcotest.(check string) "neg" "-12345" (B.to_string (B.of_int (-12345)));
  Alcotest.(check string) "big" "1000000000000000000000" (B.to_string (B.of_string "1000000000000000000000"));
  Alcotest.(check string) "padded chunks" "10000000" (B.to_string (B.of_string "10000000"))

let test_of_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "7"; "-7"; "123456789012345678901234567890"; "-999999999999999999999999" ]

let test_add_sub () =
  let a = B.of_string "123456789123456789123456789" in
  let c = B.of_string "987654321987654321" in
  check_b "a+c-c = a" a (B.sub (B.add a c) c);
  check_b "a-a = 0" B.zero (B.sub a a);
  check_b "a + (-a) = 0" B.zero (B.add a (B.neg a))

let test_mul () =
  let a = B.of_string "123456789" in
  let c = B.of_string "987654321" in
  check_b "known product" (B.of_string "121932631112635269") (B.mul a c);
  check_b "by zero" B.zero (B.mul a B.zero);
  check_b "sign" (B.neg (B.mul a c)) (B.mul (B.neg a) c)

let test_factorial () =
  let rec fact n = if n = 0 then B.one else B.mul (B.of_int n) (fact (n - 1)) in
  Alcotest.(check string) "50!"
    "30414093201713378043612608166064768844377641568960512000000000000"
    (B.to_string (fact 50))

let test_divmod () =
  let check_pair a bdiv =
    let q, r = B.divmod a bdiv in
    check_b "a = q*b + r" a (B.add (B.mul q bdiv) r);
    Alcotest.(check bool) "|r| < |b|" true (B.compare (B.abs r) (B.abs bdiv) < 0)
  in
  check_pair (B.of_string "123456789123456789") (B.of_string "987654321");
  check_pair (B.of_string "-123456789123456789") (B.of_string "987654321");
  check_pair (B.of_string "123456789123456789") (B.of_string "-987654321");
  check_pair (B.of_string "5") (B.of_string "7");
  check_pair (B.of_string "100000000000000000000000000000000") (B.of_string "3");
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero))

let test_divmod_knuth_addback () =
  (* Exercises the rare "add back" branch of algorithm D with a divisor whose
     top limb forces overestimated quotient digits. *)
  let a = B.sub (B.pow (B.of_int 2) 120) B.one in
  let d = B.add (B.pow (B.of_int 2) 60) B.one in
  let q, r = B.divmod a d in
  check_b "identity" a (B.add (B.mul q d) r)

let test_gcd () =
  check_b "gcd(12,18)" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
  check_b "gcd(0,5)" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  check_b "gcd(-12,18)" (B.of_int 6) (B.gcd (B.of_int (-12)) (B.of_int 18));
  check_b "gcd(0,0)" B.zero (B.gcd B.zero B.zero)

let test_pow () =
  check_b "2^62" (B.of_string "4611686018427387904") (B.pow (B.of_int 2) 62);
  check_b "x^0" B.one (B.pow (B.of_int 123) 0)

let test_compare () =
  Alcotest.(check bool) "neg < pos" true (B.compare (B.of_int (-5)) (B.of_int 3) < 0);
  Alcotest.(check bool) "longer wins" true
    (B.compare (B.of_string "100000000000000") (B.of_string "99999999999999") > 0);
  Alcotest.(check bool) "neg longer loses" true
    (B.compare (B.of_string "-100000000000000") (B.of_string "-99999999999999") < 0)

let test_to_float () =
  Alcotest.(check (float 1e-9)) "small" 42.0 (B.to_float (B.of_int 42));
  Alcotest.(check (float 1e6)) "2^70" (Float.pow 2. 70.) (B.to_float (B.pow (B.of_int 2) 70))

(* Property tests *)

let arb_small = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

let prop_add_matches_int =
  QCheck2.Test.make ~name:"bigint add matches int add" ~count:500
    QCheck2.Gen.(pair arb_small arb_small)
    (fun (x, y) -> B.to_int_opt (B.add (B.of_int x) (B.of_int y)) = Some (x + y))

let prop_mul_matches_int =
  QCheck2.Test.make ~name:"bigint mul matches int mul" ~count:500
    QCheck2.Gen.(pair arb_small arb_small)
    (fun (x, y) -> B.to_int_opt (B.mul (B.of_int x) (B.of_int y)) = Some (x * y))

let gen_big =
  (* Random bignum from a random decimal string, occasionally negative. *)
  QCheck2.Gen.(
    let* digits = int_range 1 60 in
    let* sign = bool in
    let* ds = list_size (return digits) (int_range 0 9) in
    let s = String.concat "" (List.map string_of_int ds) in
    let s = if s = "" then "0" else s in
    return (if sign then B.neg (B.of_string s) else B.of_string s))

let prop_divmod_identity =
  QCheck2.Test.make ~name:"divmod identity on random bignums" ~count:300
    QCheck2.Gen.(pair gen_big gen_big)
    (fun (a, d) ->
      if B.is_zero d then true
      else begin
        let q, r = B.divmod a d in
        B.equal a (B.add (B.mul q d) r)
        && B.compare (B.abs r) (B.abs d) < 0
        && (B.is_zero r || B.sign r = B.sign a)
      end)

let prop_mul_commutative =
  QCheck2.Test.make ~name:"mul commutative" ~count:300
    QCheck2.Gen.(pair gen_big gen_big)
    (fun (a, c) -> B.equal (B.mul a c) (B.mul c a))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"to_string/of_string roundtrip" ~count:300 gen_big
    (fun a -> B.equal a (B.of_string (B.to_string a)))

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both" ~count:300
    QCheck2.Gen.(pair gen_big gen_big)
    (fun (a, c) ->
      let g = B.gcd a c in
      if B.is_zero g then B.is_zero a && B.is_zero c
      else B.is_zero (B.rem a g) && B.is_zero (B.rem c g))

(* The small/large boundary. Every native int is drawn near a point where
   a representation or an overflow test changes; scaling by K = 2^64 + 1
   puts any non-zero operand on the limb path, so each identity checks the
   native operation against the limb one. *)

let gen_edge =
  QCheck2.Gen.(
    let near c = map (fun d -> c + d) (int_range (-4) 4) in
    oneof
      [
        near 0;
        near (1 lsl 15);
        near (-(1 lsl 15));
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
let scaled n = B.mul (B.of_int n) big_k

let edge_law name law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~long_factor:100
       ~print:QCheck2.Print.(pair int int)
       QCheck2.Gen.(pair gen_edge gen_edge)
       law)

let prop_edge_add =
  edge_law "boundary add/sub agree with the limb path" (fun (a, c) ->
      let x = B.of_int a and y = B.of_int c in
      B.equal (B.mul (B.add x y) big_k) (B.add (scaled a) (scaled c))
      && B.equal (B.mul (B.sub x y) big_k) (B.sub (scaled a) (scaled c)))

let prop_edge_mul =
  edge_law "boundary mul agrees with the limb path" (fun (a, c) ->
      B.equal (B.mul (B.mul (B.of_int a) (B.of_int c)) big_k) (B.mul (scaled a) (B.of_int c)))

let prop_edge_divmod =
  edge_law "boundary divmod agrees with the limb path" (fun (a, c) ->
      c = 0
      ||
      let q, r = B.divmod (B.of_int a) (B.of_int c) in
      let qk, rk = B.divmod (scaled a) (scaled c) in
      B.equal q qk && B.equal (B.mul r big_k) rk)

let prop_edge_gcd =
  edge_law "boundary gcd agrees with the limb path" (fun (a, c) ->
      B.equal (B.mul (B.gcd (B.of_int a) (B.of_int c)) big_k) (B.gcd (scaled a) (scaled c)))

let prop_edge_compare =
  edge_law "boundary compare agrees with the limb path" (fun (a, c) ->
      let sgn n = Int.compare n 0 in
      sgn (B.compare (B.of_int a) (B.of_int c)) = sgn (B.compare (scaled a) (scaled c)))

let prop_edge_add_fits =
  edge_law "a sum fits an int exactly when the native sum does not overflow" (fun (a, c) ->
      let s = a + c in
      let overflow = (a >= 0 && c >= 0 && s < 0) || (a < 0 && c < 0 && s >= 0) in
      B.to_int_opt (B.add (B.of_int a) (B.of_int c)) = if overflow then None else Some s)

let prop_edge_to_string =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"to_string of an int is string_of_int" ~count:500 ~long_factor:100
       ~print:QCheck2.Print.int gen_edge (fun n -> B.to_string (B.of_int n) = string_of_int n))

let prop_to_float_wide =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"to_float of an int in [2^53, 2^62) is float_of_int" ~count:500
       ~long_factor:100 ~print:QCheck2.Print.int
       QCheck2.Gen.(int_range (1 lsl 53) max_int)
       (fun n -> B.to_float (B.of_int n) = float_of_int n))

(* [of_string] takes exactly [+-]?[0-9]+ and prints back the canonical
   decimal: no [+], no leading zeros, no [-0]. *)
let decimal_syntax s =
  let n = String.length s in
  let start = if n > 0 && (s.[0] = '+' || s.[0] = '-') then 1 else 0 in
  start < n && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s start (n - start))

let canonical_decimal s =
  let neg = s.[0] = '-' in
  let start = if s.[0] = '+' || neg then 1 else 0 in
  let rec first i = if i < String.length s - 1 && s.[i] = '0' then first (i + 1) else i in
  let i = first start in
  let digits = String.sub s i (String.length s - i) in
  if neg && digits <> "0" then "-" ^ digits else digits

let of_string_outcome s =
  match B.of_string s with
  | v -> Some (B.to_string v)
  | exception Invalid_argument _ -> None

let prop_of_string_syntax =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"of_string accepts exactly [+-]?[0-9]+" ~count:1000 ~long_factor:100
       ~print:QCheck2.Print.string
       QCheck2.Gen.(
         let* len = int_range 0 22 in
         string_size ~gen:(oneof [ char_range '0' '9'; oneofl [ '+'; '-'; '_'; 'x'; 'o'; 'b'; ' ' ] ]) (return len))
       (fun s ->
         of_string_outcome s = if decimal_syntax s then Some (canonical_decimal s) else None))

let test_of_string_widths () =
  List.iter
    (fun (s, expect) -> Alcotest.(check string) s expect (B.to_string (B.of_string s)))
    [
      ("999999999999999999", "999999999999999999");
      ("-999999999999999999", "-999999999999999999");
      ("+000000000000000007", "7");
      ("4611686018427387903", "4611686018427387903");
      ("4611686018427387904", "4611686018427387904");
      ("-4611686018427387904", "-4611686018427387904");
      ("9999999999999999999", "9999999999999999999");
      ("00000000000000000001", "1");
      ("-0000000000000000000", "0");
      ("12345678901234567890", "12345678901234567890");
    ];
  Alcotest.(check (option int)) "min_int" (Some min_int)
    (B.to_int_opt (B.of_string "-4611686018427387904"));
  Alcotest.(check (option int)) "2^62" None (B.to_int_opt (B.of_string "4611686018427387904"));
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Bigint.of_string: bad digit") (fun () ->
          ignore (B.of_string s)))
    [ "0x1f"; "0b1"; "1_0"; " 1"; "12345678901234567890x" ]

let test_limb_result_comes_back_small () =
  let p70 = B.pow (B.of_int 2) 70 in
  let q = B.div (B.mul (B.of_int 3) p70) p70 in
  check_b "3·2^70 / 2^70" (B.of_int 3) q;
  Alcotest.(check int) "same hash" (B.hash (B.of_int 3)) (B.hash q);
  Alcotest.(check (option int)) "fits" (Some 3) (B.to_int_opt q)

(* Values computed by the limb-only representation; the hash must not
   depend on which representation holds a value. *)
let test_pinned_hashes () =
  List.iter
    (fun (v, h) -> Alcotest.(check int) (B.to_string v) h (B.hash v))
    [
      (B.zero, 2);
      (B.one, 94);
      (B.minus_one, 32);
      (B.of_int 32767, 32860);
      (B.of_int 32768, 2884);
      (B.of_int (1 lsl 40), 90397);
      (B.of_int max_int, 31355566624);
      (B.of_int min_int, 28629155);
      (B.of_string "1000000000000000000000", 566931626);
    ]

let suite =
  ( "bigint",
    [
      Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
      Alcotest.test_case "to_string" `Quick test_to_string;
      Alcotest.test_case "of_string roundtrip" `Quick test_of_string_roundtrip;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "factorial 50" `Quick test_factorial;
      Alcotest.test_case "divmod" `Quick test_divmod;
      Alcotest.test_case "divmod add-back branch" `Quick test_divmod_knuth_addback;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "to_float" `Quick test_to_float;
      QCheck_alcotest.to_alcotest prop_add_matches_int;
      QCheck_alcotest.to_alcotest prop_mul_matches_int;
      QCheck_alcotest.to_alcotest prop_divmod_identity;
      QCheck_alcotest.to_alcotest prop_mul_commutative;
      QCheck_alcotest.to_alcotest prop_string_roundtrip;
      QCheck_alcotest.to_alcotest prop_gcd_divides;
      prop_edge_add;
      prop_edge_mul;
      prop_edge_divmod;
      prop_edge_gcd;
      prop_edge_compare;
      prop_edge_add_fits;
      prop_edge_to_string;
      prop_to_float_wide;
      prop_of_string_syntax;
      Alcotest.test_case "of_string at 18 to 20 digits" `Quick test_of_string_widths;
      Alcotest.test_case "a limb result that fits is small" `Quick test_limb_result_comes_back_small;
      Alcotest.test_case "pinned hashes" `Quick test_pinned_hashes;
    ] )
