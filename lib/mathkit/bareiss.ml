module type RING = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val sub : t -> t -> t
  val mul : t -> t -> t
  val divide_exact : t -> t -> t option
end

module Make (R : RING) = struct
  let exact a b =
    match R.divide_exact a b with
    | Some q -> q
    | None -> failwith "Bareiss.solve: inexact division (not an integral domain?)"

  (* One-step fraction-free Gauss–Jordan on the augmented matrix [a | b].
     After the step on column k every entry of the working matrix is a
     (k+1)×(k+1) minor of the row-permuted input, so the division by the
     previous pivot is exact; the eliminated columns hold the current
     pivot on the diagonal and zeros elsewhere, so they are not stored
     back. *)
  let solve a b =
    let n = Array.length a in
    if Array.length b <> n then invalid_arg "Bareiss.solve: dimension mismatch";
    Array.iter (fun r -> if Array.length r <> n then invalid_arg "Bareiss.solve: not square") a;
    let m = Array.init n (fun i -> Array.append a.(i) [| b.(i) |]) in
    let prev = ref None (* the previous pivot; [None] before the first *) in
    match
      for col = 0 to n - 1 do
        Tpan_obs.Cancel.checkpoint ();
        let rec find i =
          if i = n then raise_notrace Exit else if R.is_zero m.(i).(col) then find (i + 1) else i
        in
        let r = find col in
        let tmp = m.(col) in
        m.(col) <- m.(r);
        m.(r) <- tmp;
        let p = m.(col).(col) and prow = m.(col) in
        let scale v = match !prev with None -> v | Some d -> exact v d in
        for i = 0 to n - 1 do
          if i <> col then begin
            let row = m.(i) in
            let f = row.(col) in
            for j = col + 1 to n do
              let x = row.(j) and y = prow.(j) in
              row.(j) <-
                (if R.is_zero f || R.is_zero y then
                   if R.is_zero x then R.zero else scale (R.mul p x)
                 else scale (R.sub (R.mul p x) (R.mul f y)))
            done;
            row.(col) <- R.zero
          end
        done;
        prev := Some p
      done
    with
    | () -> Some (Array.map (fun row -> row.(n)) m, Option.value !prev ~default:R.one)
    | exception Exit -> None (* a column with no pivot: singular *)
end
