module Q = Tpan_mathkit.Q

type bound = Fin of Q.t | Inf

let bound_compare a b =
  match (a, b) with
  | Inf, Inf -> 0
  | Inf, Fin _ -> 1
  | Fin _, Inf -> -1
  | Fin x, Fin y -> Q.compare x y

let bound_add a b =
  match (a, b) with Inf, _ | _, Inf -> Inf | Fin x, Fin y -> Fin (Q.add x y)

let bound_min a b = if bound_compare a b <= 0 then a else b

type t = { n : int; m : bound array array }
(* [m] is (n+1)×(n+1); row/col 0 is the constant zero variable. *)

let create n =
  let size = n + 1 in
  let m = Array.init size (fun i -> Array.init size (fun j -> if i = j then Fin Q.zero else Inf)) in
  { n; m }

let get d i j = d.m.(i).(j)
let set d i j b = d.m.(i).(j) <- b
let constrain d i j b = d.m.(i).(j) <- bound_min d.m.(i).(j) b

let copy d = { n = d.n; m = Array.map Array.copy d.m }

let canonicalize d =
  let size = d.n + 1 in
  for k = 0 to size - 1 do
    for i = 0 to size - 1 do
      for j = 0 to size - 1 do
        let via = bound_add d.m.(i).(k) d.m.(k).(j) in
        if bound_compare via d.m.(i).(j) < 0 then d.m.(i).(j) <- via
      done
    done
  done;
  (* consistent iff no negative diagonal entry *)
  let ok = ref true in
  for i = 0 to size - 1 do
    match d.m.(i).(i) with
    | Fin q when Q.sign q < 0 -> ok := false
    | Fin _ | Inf -> ()
  done;
  !ok

let equal a b =
  a.n = b.n
  && begin
    let ok = ref true in
    for i = 0 to a.n do
      for j = 0 to a.n do
        if bound_compare a.m.(i).(j) b.m.(i).(j) <> 0 then ok := false
      done
    done;
    !ok
  end

let hash d =
  let acc = ref d.n in
  for i = 0 to d.n do
    for j = 0 to d.n do
      acc := (!acc * 31) + (match d.m.(i).(j) with Inf -> 7 | Fin q -> Q.hash q)
    done
  done;
  !acc land max_int

let pp fmt d =
  Format.pp_open_vbox fmt 0;
  for i = 0 to d.n do
    for j = 0 to d.n do
      if i <> j then
        match d.m.(i).(j) with
        | Inf -> ()
        | Fin q -> Format.fprintf fmt "x%d - x%d <= %a@," i j (Q.pp_decimal ~digits:6) q
    done
  done;
  Format.pp_close_box fmt ()
