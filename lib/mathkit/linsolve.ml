module type FIELD = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

module Make (F : FIELD) = struct
  type outcome =
    | Unique of F.t array
    | Underdetermined
    | Inconsistent

  let solve a b =
    let rows = Array.length a in
    if Array.length b <> rows then invalid_arg "Linsolve.solve: dimension mismatch";
    let cols = if rows = 0 then 0 else Array.length a.(0) in
    Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Linsolve.solve: ragged matrix") a;
    (* Work on an augmented copy. *)
    let m = Array.init rows (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
    let pivot_of_col = Array.make cols (-1) in
    let row = ref 0 in
    for col = 0 to cols - 1 do
      if !row < rows then begin
        (* find a row at or below [!row] with a non-zero entry in [col] *)
        let p = ref (-1) in
        for i = !row to rows - 1 do
          if !p < 0 && not (F.is_zero m.(i).(col)) then p := i
        done;
        if !p >= 0 then begin
          let tmp = m.(!row) in
          m.(!row) <- m.(!p);
          m.(!p) <- tmp;
          (* normalize pivot row *)
          let pv = m.(!row).(col) in
          for j = col to cols do
            m.(!row).(j) <- F.div m.(!row).(j) pv
          done;
          (* eliminate everywhere else *)
          let prow = m.(!row) in
          for i = 0 to rows - 1 do
            if i <> !row && not (F.is_zero m.(i).(col)) then begin
              let factor = m.(i).(col) in
              let mi = m.(i) in
              for j = col to cols do
                mi.(j) <- F.sub mi.(j) (F.mul factor prow.(j))
              done
            end
          done;
          pivot_of_col.(col) <- !row;
          incr row
        end
      end
    done;
    (* Inconsistency: a zero row with non-zero rhs. *)
    let inconsistent = ref false in
    for i = !row to rows - 1 do
      if not (F.is_zero m.(i).(cols)) then inconsistent := true
    done;
    if !inconsistent then Inconsistent
    else if Array.exists (fun p -> p < 0) pivot_of_col then Underdetermined
    else Unique (Array.init cols (fun c -> m.(pivot_of_col.(c)).(cols)))
end
