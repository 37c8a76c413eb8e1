module Q = Tpan_mathkit.Q

type t = { lo : Q.t; hi : Q.t }

let make lo hi =
  if Q.compare hi lo < 0 then invalid_arg "Interval.make: hi < lo";
  { lo; hi }

let point q = { lo = q; hi = q }
let of_ints a b = make (Q.of_int a) (Q.of_int b)

let contains iv q = Q.compare iv.lo q <= 0 && Q.compare q iv.hi <= 0
let is_point iv = Q.equal iv.lo iv.hi
let width iv = Q.sub iv.hi iv.lo

let add a b = { lo = Q.add a.lo b.lo; hi = Q.add a.hi b.hi }
let neg a = { lo = Q.neg a.hi; hi = Q.neg a.lo }
let sub a b = add a (neg b)

let mul a b =
  let cands = [ Q.mul a.lo b.lo; Q.mul a.lo b.hi; Q.mul a.hi b.lo; Q.mul a.hi b.hi ] in
  {
    lo = List.fold_left Q.min (List.hd cands) (List.tl cands);
    hi = List.fold_left Q.max (List.hd cands) (List.tl cands);
  }

let div a b =
  if Q.sign b.lo <= 0 && Q.sign b.hi >= 0 then raise Division_by_zero;
  mul a { lo = Q.inv b.hi; hi = Q.inv b.lo }

let pow a n =
  if n < 0 then invalid_arg "Interval.pow: negative exponent";
  if n = 0 then point Q.one
  else if n mod 2 = 1 || Q.sign a.lo >= 0 then begin
    let rec qp q k = if k = 0 then Q.one else Q.mul q (qp q (k - 1)) in
    { lo = qp a.lo n; hi = qp a.hi n }
  end
  else if Q.sign a.hi <= 0 then begin
    let rec qp q k = if k = 0 then Q.one else Q.mul q (qp q (k - 1)) in
    { lo = qp a.hi n; hi = qp a.lo n }
  end
  else begin
    (* even power of a sign-spanning interval: [0, max(|lo|,|hi|)^n] *)
    let m = Q.max (Q.abs a.lo) (Q.abs a.hi) in
    let rec qp q k = if k = 0 then Q.one else Q.mul q (qp q (k - 1)) in
    { lo = Q.zero; hi = qp m n }
  end

let join a b = { lo = Q.min a.lo b.lo; hi = Q.max a.hi b.hi }

let equal a b = Q.equal a.lo b.lo && Q.equal a.hi b.hi

let pp fmt iv =
  if is_point iv then Format.fprintf fmt "%a" (Q.pp_decimal ~digits:6) iv.lo
  else
    Format.fprintf fmt "[%a, %a]" (Q.pp_decimal ~digits:6) iv.lo (Q.pp_decimal ~digits:6) iv.hi

(* Monomial-by-monomial interval evaluation; conservative when a variable
   occurs in several terms (classic interval dependency). *)
let eval_poly env p =
  Poly.fold
    (fun mono c acc ->
      let term =
        List.fold_left (fun acc (v, e) -> mul acc (pow (env v) e)) (point c) mono
      in
      add acc term)
    p (point Q.zero)

let eval_ratfun env r = div (eval_poly env (Ratfun.num r)) (eval_poly env (Ratfun.den r))
