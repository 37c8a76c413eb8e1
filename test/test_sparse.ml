(* Sparse-vs-dense differential tests for the exact ℚ solver.

   The contract under test is Sparse's headline guarantee: for any system,
   the sparse elimination returns the same outcome constructor as the dense
   Gauss–Jordan, and a [Unique] solution is bit-identical (same ℚ values,
   not just numerically close). The differential below drives both solvers
   from one seeded stream of random systems, including the shapes that
   distinguish the classifications: all-zero rows (rank deficiency and
   inconsistency) and duplicate column entries in the row-list input
   (which [solve_rows] must sum, exactly). *)

module Q = Tpan_mathkit.Q

module F = struct
  type t = Q.t

  let zero = Q.zero
  let one = Q.one
  let is_zero = Q.is_zero
  let add = Q.add
  let sub = Q.sub
  let mul = Q.mul
  let div = Q.div
  let pp = Q.pp
end

module S = Tpan_mathkit.Sparse.Make (F)
module D = Tpan_mathkit.Linsolve.Make (F)

let qi = Q.of_int

let outcome_label = function
  | S.Unique _ -> "unique"
  | S.Underdetermined -> "underdetermined"
  | S.Inconsistent -> "inconsistent"

(* dense matrix -> row lists, optionally splitting entries into duplicate
   (col, v1), (col, v2) pairs with v1 + v2 = v to exercise the summing *)
let rows_of_dense ~split rng a =
  Array.map
    (fun row ->
      let entries = ref [] in
      Array.iteri
        (fun j v ->
          if not (Q.is_zero v) then
            if split && Random.State.bool rng then begin
              let d = qi (1 + Random.State.int rng 5) in
              entries := (j, Q.sub v d) :: (j, d) :: !entries
            end
            else entries := (j, v) :: !entries)
        row;
      (* a few explicit zeros that norm_row must drop *)
      if Random.State.bool rng && Array.length row > 0 then
        entries := (Random.State.int rng (Array.length row), Q.zero) :: !entries;
      !entries)
    a

let of_dense = function
  | D.Unique x -> S.Unique x
  | D.Underdetermined -> S.Underdetermined
  | D.Inconsistent -> S.Inconsistent

let agree name dense_outcome sparse_outcome =
  match (of_dense dense_outcome, sparse_outcome) with
  | S.Unique x, S.Unique y ->
    Alcotest.(check bool)
      (name ^ ": unique solutions bit-identical")
      true
      (Array.length x = Array.length y && Array.for_all2 Q.equal x y)
  | S.Underdetermined, S.Underdetermined | S.Inconsistent, S.Inconsistent -> ()
  | d, s -> Alcotest.failf "%s: dense %s but sparse %s" name (outcome_label d) (outcome_label s)

(* one random system: size 1..8, ~40% fill, entries in [-5, 5], rhs either
   planted (consistent) or random (any outcome) *)
let random_case rng i =
  let n = 1 + Random.State.int rng 8 in
  let a =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            if Random.State.int rng 10 < 4 then qi (Random.State.int rng 11 - 5) else Q.zero))
  in
  (* sometimes blank out a full row: rank deficiency on purpose *)
  if Random.State.int rng 4 = 0 then a.(Random.State.int rng n) <- Array.make n Q.zero;
  let b =
    if Random.State.bool rng then begin
      let x = Array.init n (fun _ -> qi (Random.State.int rng 7 - 3)) in
      Array.init n (fun r ->
          let acc = ref Q.zero in
          for j = 0 to n - 1 do
            acc := Q.add !acc (Q.mul a.(r).(j) x.(j))
          done;
          !acc)
    end
    else Array.init n (fun _ -> qi (Random.State.int rng 7 - 3))
  in
  let name = Printf.sprintf "case %d (n=%d)" i n in
  agree name (D.solve a b) (S.solve_rows ~ncols:n (rows_of_dense ~split:true rng a) b)

let test_differential () =
  (* seeded: the same 300 systems every run *)
  let rng = Random.State.make [| 0x5eed; 42 |] in
  for i = 1 to 300 do
    random_case rng i
  done

let test_all_zero_rows () =
  (* all-zero row with zero rhs: underdetermined, both solvers *)
  let rows = [| [ (0, Q.one) ]; [] |] in
  (match S.solve_rows ~ncols:2 rows [| qi 3; Q.zero |] with
  | S.Underdetermined -> ()
  | o -> Alcotest.failf "zero row, zero rhs: expected underdetermined, got %s" (outcome_label o));
  (* all-zero row with nonzero rhs: inconsistent even when another column
     is rank-deficient too — inconsistency must win, as in Dense *)
  match S.solve_rows ~ncols:2 [| []; [] |] [| Q.zero; qi 1 |] with
  | S.Inconsistent -> ()
  | o -> Alcotest.failf "zero row, nonzero rhs: expected inconsistent, got %s" (outcome_label o)

let test_duplicate_columns_cancel () =
  (* duplicate entries that cancel to zero leave an all-zero row *)
  let rows = [| [ (0, qi 2); (0, qi (-2)) ]; [ (1, Q.one) ] |] in
  match S.solve_rows ~ncols:2 rows [| Q.zero; qi 5 |] with
  | S.Underdetermined -> ()
  | o -> Alcotest.failf "cancelling duplicates: expected underdetermined, got %s" (outcome_label o)

let test_large_sparse_path () =
  (* a 72-row bidiagonal system with a planted solution, given to
     [solve_rows] as one row list per equation *)
  let n = 72 in
  let a = Array.make_matrix n n Q.zero in
  for i = 0 to n - 1 do
    a.(i).(i) <- qi 2;
    if i > 0 then a.(i).(i - 1) <- qi (-1)
  done;
  let x = Array.init n (fun i -> Q.of_ints (i - 7) 3) in
  let b =
    Array.init n (fun i ->
        let acc = ref (Q.mul (qi 2) x.(i)) in
        if i > 0 then acc := Q.add !acc (Q.mul (qi (-1)) x.(i - 1));
        !acc)
  in
  let rows =
    Array.init n (fun i -> if i > 0 then [ (i, qi 2); (i - 1, qi (-1)) ] else [ (i, qi 2) ])
  in
  agree "large bidiagonal" (D.solve a b) (S.solve_rows ~ncols:n rows b)

let test_column_out_of_range () =
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Sparse.solve_rows: column index out of range")
    (fun () -> ignore (S.solve_rows ~ncols:2 [| [ (2, Q.one) ] |] [| Q.zero |]))

let prop_matches_dense =
  (* an unseeded second opinion on top of the seeded sweep *)
  QCheck2.Test.make ~name:"sparse outcome matches dense" ~count:150
    QCheck2.Gen.(
      let elt = int_range (-4) 4 in
      let* n = int_range 1 6 in
      let* rows = list_size (return n) (list_size (return n) elt) in
      let* rhs = list_size (return n) elt in
      return (n, rows, rhs))
    (fun (n, rows, rhs) ->
      let a = Array.of_list (List.map (fun r -> Array.of_list (List.map qi r)) rows) in
      let b = Array.of_list (List.map qi rhs) in
      let sparse_rows =
        Array.map
          (fun row ->
            let acc = ref [] in
            Array.iteri (fun j v -> if not (Q.is_zero v) then acc := (j, v) :: !acc) row;
            !acc)
          a
      in
      match (of_dense (D.solve a b), S.solve_rows ~ncols:n sparse_rows b) with
      | S.Unique x, S.Unique y -> Array.for_all2 Q.equal x y
      | S.Underdetermined, S.Underdetermined -> true
      | S.Inconsistent, S.Inconsistent -> true
      | _ -> false)

let suite =
  ( "sparse",
    [
      Alcotest.test_case "seeded dense differential (300 systems)" `Quick test_differential;
      Alcotest.test_case "all-zero rows" `Quick test_all_zero_rows;
      Alcotest.test_case "duplicate columns cancel" `Quick test_duplicate_columns_cancel;
      Alcotest.test_case "large system takes the sparse path" `Quick test_large_sparse_path;
      Alcotest.test_case "column out of range" `Quick test_column_out_of_range;
      QCheck_alcotest.to_alcotest prop_matches_dense;
    ] )
