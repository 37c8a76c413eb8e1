(* Sparse exact Gauss elimination with Markowitz-style pivoting.

   Rows live as sorted (column, nonzero coefficient) assoc lists; a
   per-column index tracks which active rows touch each column, so a
   pivot step only rewrites the rows that actually contain the pivot
   column. Pivots are chosen to limit fill-in: sparsest eligible column
   first, then the shortest row in it (ties broken by smallest index,
   which keeps the elimination deterministic). Exactness of the field
   means any nonzero pivot is numerically valid, so the heuristic is
   free to chase sparsity alone. *)

module Make (F : Linsolve.FIELD) = struct
  type outcome =
    | Unique of F.t array
    | Underdetermined
    | Inconsistent

  (* Sort by column, sum duplicates, drop zeros; validates column range. *)
  let norm_row ~ncols entries =
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
    let rec go = function
      | (c, _) :: _ when c < 0 || c >= ncols ->
        invalid_arg "Sparse.solve_rows: column index out of range"
      | (c1, v1) :: (c2, v2) :: rest when c1 = c2 -> go ((c1, F.add v1 v2) :: rest)
      | (c, v) :: rest -> if F.is_zero v then go rest else (c, v) :: go rest
      | [] -> []
    in
    go sorted

  (* r - f·p for sorted rows; drops cancellations. *)
  let rec axpy f p r =
    match (p, r) with
    | [], r -> r
    | (cp, vp) :: tp, [] -> (cp, F.sub F.zero (F.mul f vp)) :: axpy f tp []
    | (cp, vp) :: tp, ((cr, vr) :: tr as r) ->
      if cp < cr then (cp, F.sub F.zero (F.mul f vp)) :: axpy f tp r
      else if cp > cr then (cr, vr) :: axpy f p tr
      else begin
        let v = F.sub vr (F.mul f vp) in
        if F.is_zero v then axpy f tp tr else (cp, v) :: axpy f tp tr
      end

  let solve_rows ~ncols rows b =
    let nrows = Array.length rows in
    if Array.length b <> nrows then invalid_arg "Sparse.solve_rows: dimension mismatch";
    let row = Array.map (norm_row ~ncols) rows in
    let rhs = Array.copy b in
    let active = Array.make nrows true in
    (* col_rows.(c): the set of active rows with an entry in column c. *)
    let col_rows = Array.init ncols (fun _ -> Hashtbl.create 8) in
    Array.iteri
      (fun i r -> List.iter (fun (c, _) -> Hashtbl.replace col_rows.(c) i ()) r)
      row;
    let pivot_done = Array.make ncols false in
    let pivots = ref [] (* (row, col), most recent first *) in
    let npivots = ref 0 in
    let drop_from_index i r = List.iter (fun (c, _) -> Hashtbl.remove col_rows.(c) i) r in
    let add_to_index i r = List.iter (fun (c, _) -> Hashtbl.replace col_rows.(c) i ()) r in
    let continue_ = ref true in
    while !continue_ do
      Tpan_obs.Cancel.checkpoint ();
      (* Pivot column: fewest active rows among columns still in play. *)
      let best_c = ref (-1) and best_n = ref max_int in
      for c = 0 to ncols - 1 do
        if not pivot_done.(c) then begin
          let n = Hashtbl.length col_rows.(c) in
          if n > 0 && n < !best_n then begin
            best_c := c;
            best_n := n
          end
        end
      done;
      if !best_c < 0 then continue_ := false
      else begin
        let c = !best_c in
        (* Pivot row: shortest row touching c, smallest index on ties. *)
        let best_r = ref (-1) and best_len = ref max_int in
        Hashtbl.iter
          (fun r () ->
            let len = List.length row.(r) in
            if len < !best_len || (len = !best_len && (!best_r < 0 || r < !best_r)) then begin
              best_r := r;
              best_len := len
            end)
          col_rows.(c);
        let r = !best_r in
        active.(r) <- false;
        drop_from_index r row.(r);
        let pv = List.assoc c row.(r) in
        row.(r) <- List.map (fun (col, v) -> (col, F.div v pv)) row.(r);
        rhs.(r) <- F.div rhs.(r) pv;
        let prow = row.(r) and prhs = rhs.(r) in
        (* Rows still containing c; sorted for a deterministic schedule. *)
        Hashtbl.fold (fun i () acc -> i :: acc) col_rows.(c) []
        |> List.sort Int.compare
        |> List.iter (fun i ->
               let f = List.assoc c row.(i) in
               drop_from_index i row.(i);
               row.(i) <- axpy f prow row.(i);
               rhs.(i) <- F.sub rhs.(i) (F.mul f prhs);
               add_to_index i row.(i));
        pivot_done.(c) <- true;
        pivots := (r, c) :: !pivots;
        incr npivots
      end
    done;
    (* Every active row is now all-zero on the left (any surviving entry
       would have kept its column in play). Inconsistency is checked
       before rank, matching the dense classification. *)
    let inconsistent = ref false in
    for i = 0 to nrows - 1 do
      if active.(i) && not (F.is_zero rhs.(i)) then inconsistent := true
    done;
    if !inconsistent then Inconsistent
    else if !npivots < ncols then Underdetermined
    else begin
      (* Back-substitution in reverse elimination order: a pivot row can
         only mention columns pivoted later, whose values are already in
         [x] by the time we reach it. *)
      let x = Array.make ncols F.zero in
      List.iter
        (fun (r, c) ->
          let acc = ref rhs.(r) in
          List.iter
            (fun (col, v) -> if col <> c then acc := F.sub !acc (F.mul v x.(col)))
            row.(r);
          x.(c) <- !acc)
        !pivots;
      Unique x
    end
end
