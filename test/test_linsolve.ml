(* Tests for exact Gaussian elimination over Q. *)

module Q = Tpan_mathkit.Q

module QS = Tpan_mathkit.Linsolve.Make (struct
  type t = Q.t

  let zero = Q.zero
  let one = Q.one
  let is_zero = Q.is_zero
  let add = Q.add
  let sub = Q.sub
  let mul = Q.mul
  let div = Q.div
  let pp = Q.pp
end)

let qi = Q.of_int
let qm rows = Array.map (Array.map qi) rows
let qv = Array.map qi

let check_solution msg expected got =
  match got with
  | QS.Unique x ->
    Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length x);
    Array.iteri
      (fun i e -> Alcotest.(check bool) (Printf.sprintf "%s[%d]" msg i) true (Q.equal e x.(i)))
      expected
  | QS.Underdetermined -> Alcotest.fail (msg ^ ": underdetermined")
  | QS.Inconsistent -> Alcotest.fail (msg ^ ": inconsistent")

let test_2x2 () =
  (* x + y = 3, x - y = 1 -> (2, 1) *)
  check_solution "2x2" (qv [| 2; 1 |])
    (QS.solve (qm [| [| 1; 1 |]; [| 1; -1 |] |]) (qv [| 3; 1 |]))

let test_3x3_fractions () =
  (* Hilbert-ish system with exact rational solution *)
  let a =
    [|
      [| Q.one; Q.of_ints 1 2; Q.of_ints 1 3 |];
      [| Q.of_ints 1 2; Q.of_ints 1 3; Q.of_ints 1 4 |];
      [| Q.of_ints 1 3; Q.of_ints 1 4; Q.of_ints 1 5 |];
    |]
  in
  let x = [| Q.of_int 1; Q.of_int (-2); Q.of_int 3 |] in
  let b =
    Array.init 3 (fun i ->
        let acc = ref Q.zero in
        for j = 0 to 2 do
          acc := Q.add !acc (Q.mul a.(i).(j) x.(j))
        done;
        !acc)
  in
  check_solution "hilbert" x (QS.solve a b)

let test_pivoting () =
  (* leading zero forces a row swap *)
  check_solution "pivot swap" (qv [| 1; 2 |])
    (QS.solve (qm [| [| 0; 1 |]; [| 1; 0 |] |]) (qv [| 2; 1 |]))

let test_underdetermined () =
  match QS.solve (qm [| [| 1; 1 |]; [| 2; 2 |] |]) (qv [| 3; 6 |]) with
  | QS.Underdetermined -> ()
  | _ -> Alcotest.fail "expected underdetermined"

let test_inconsistent () =
  match QS.solve (qm [| [| 1; 1 |]; [| 1; 1 |] |]) (qv [| 3; 4 |]) with
  | QS.Inconsistent -> ()
  | _ -> Alcotest.fail "expected inconsistent"

let test_dimension_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Linsolve.solve: dimension mismatch")
    (fun () -> ignore (QS.solve (qm [| [| 1 |] |]) (qv [| 1; 2 |])))

let prop_solves_random_system =
  (* Build a random system from a known solution; solver must recover it
     whenever the matrix is regular. *)
  QCheck2.Test.make ~name:"recovers planted solution" ~count:200
    QCheck2.Gen.(
      let elt = int_range (-5) 5 in
      let* n = int_range 1 4 in
      let* rows = list_size (return n) (list_size (return n) elt) in
      let* x = list_size (return n) elt in
      return (rows, x))
    (fun (rows, x) ->
      let n = List.length x in
      let a = Array.of_list (List.map (fun r -> Array.of_list (List.map qi r)) rows) in
      let x = Array.of_list (List.map qi x) in
      let b =
        Array.init n (fun i ->
            let acc = ref Q.zero in
            for j = 0 to n - 1 do
              acc := Q.add !acc (Q.mul a.(i).(j) x.(j))
            done;
            !acc)
      in
      match QS.solve a b with
      | QS.Unique y -> Array.for_all2 Q.equal x y
      | QS.Underdetermined -> true (* singular matrix: planted solution not unique *)
      | QS.Inconsistent -> false (* impossible: b was built from a model *))

(* Fraction-free elimination over ℤ against the ℚ elimination above: a
   unique ℚ solution y must come back as (x, d) with d ≠ 0 and x = d·y
   (so every division on the way was exact), and a system without one
   as [None]. *)
module B = Tpan_mathkit.Bigint

module FF = Tpan_mathkit.Bareiss.Make (struct
  include B

  let divide_exact a b =
    let q, r = B.divmod a b in
    if B.is_zero r then Some q else None
end)

let test_bareiss_pivoting () =
  match FF.solve [| [| B.zero; B.one |]; [| B.one; B.zero |] |] [| B.of_int 2; B.one |] with
  | Some (x, d) ->
    (* det = -1 and the row swap flips it: d = 1 *)
    Alcotest.(check (list string)) "x/d" [ "1"; "2" ]
      (Array.to_list (Array.map (fun v -> Q.to_string (Q.make v d)) x))
  | None -> Alcotest.fail "regular system reported singular"

let prop_bareiss_matches_elimination =
  QCheck2.Test.make ~name:"fraction-free = elimination over Q" ~count:300
    QCheck2.Gen.(
      let elt = int_range (-5) 5 in
      let* n = int_range 1 5 in
      let* rows = list_size (return n) (list_size (return n) elt) in
      let* b = list_size (return n) elt in
      return (rows, b))
    (fun (rows, b) ->
      let a = Array.of_list (List.map Array.of_list rows) in
      let b = Array.of_list b in
      match (QS.solve (Array.map (Array.map qi) a) (Array.map qi b),
             FF.solve (Array.map (Array.map B.of_int) a) (Array.map B.of_int b)) with
      | QS.Unique y, Some (x, d) ->
        (not (B.is_zero d)) && Array.for_all2 (fun y x -> Q.equal y (Q.make x d)) y x
      | (QS.Underdetermined | QS.Inconsistent), None -> true
      | _ -> false)

let suite =
  ( "linsolve",
    [
      Alcotest.test_case "2x2" `Quick test_2x2;
      Alcotest.test_case "3x3 with fractions" `Quick test_3x3_fractions;
      Alcotest.test_case "pivoting" `Quick test_pivoting;
      Alcotest.test_case "underdetermined" `Quick test_underdetermined;
      Alcotest.test_case "inconsistent" `Quick test_inconsistent;
      Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
      QCheck_alcotest.to_alcotest prop_solves_random_system;
      Alcotest.test_case "fraction-free pivoting" `Quick test_bareiss_pivoting;
      QCheck_alcotest.to_alcotest prop_bareiss_matches_elimination;
    ] )
