module Q = Tpan_mathkit.Q
module B = Tpan_mathkit.Bigint

(* ----- evaluation programs -----

   [n/d] compiled for exact evaluation as integer sums. With every
   variable's value written [x_i = a_i/b_i] and [D_i] its highest
   exponent in [n] or [d], each term's monomial times [Π b_i^D_i] is the
   integer [Π w_i(e_i)], [w_i(e) = a_i^e · b_i^(D_i-e)]; scaling the
   coefficients by the lcm [L] of their denominators makes the whole sum
   an integer, and the common factor [Π b_i^D_i] cancels in the quotient:

     n(x)/d(x) = (Σ C_m Π w_i(e_i)) · L_d / ((Σ C'_m Π w_i(e_i)) · L_n)

   so an evaluation runs bignum products and sums only, and a single
   [Q.make] (one gcd) at the end yields the canonical rational. *)

type kernel = {
  coeffs : B.t array;  (* term coefficients scaled by [lcm] *)
  exps : int array;  (* row-major, [width] exponents per term *)
  width : int;
  lcm : B.t;
}

type program = {
  vars : int array;  (* variable ids, the denominator's first *)
  dmax : int array;  (* [D_i] *)
  nden : int;  (* [vars.(0 .. nden-1)] are the denominator's *)
  pnum : kernel;  (* over all of [vars] *)
  pden : kernel;  (* over the first [nden] *)
}

let compile n d =
  let dvars = Poly.vars d in
  let nonly = List.filter (fun v -> not (List.exists (Var.equal v) dvars)) (Poly.vars n) in
  let vars = Array.of_list (List.map Var.id (dvars @ nonly)) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace index id i) vars;
  let dmax = Array.make (Array.length vars) 0 in
  let kernel width p =
    let terms = Poly.fold (fun m c acc -> (m, c) :: acc) p [] in
    let lcm =
      List.fold_left
        (fun l (_, c) -> let k = Q.den c in B.mul (B.div l (B.gcd l k)) k)
        B.one terms
    in
    let coeffs = Array.make (List.length terms) B.zero in
    let exps = Array.make (List.length terms * width) 0 in
    List.iteri
      (fun t (m, c) ->
        coeffs.(t) <- B.mul (Q.num c) (B.div lcm (Q.den c));
        List.iter
          (fun (v, e) ->
            let i = Hashtbl.find index (Var.id v) in
            exps.((t * width) + i) <- e;
            dmax.(i) <- max dmax.(i) e)
          m)
      terms;
    { coeffs; exps; width; lcm }
  in
  let pden = kernel (List.length dvars) d in
  let pnum = kernel (Array.length vars) n in
  { vars; dmax; nden = List.length dvars; pnum; pden }

(* [w.(e) = a^e · b^(dmax-e)] for [x = a/b] *)
let powers x dmax =
  let a = Q.num x and b = Q.den x in
  let w = Array.make (dmax + 1) B.one in
  for e = 1 to dmax do
    w.(e) <- B.mul w.(e - 1) a
  done;
  if not (B.is_one b) then begin
    let bp = ref b in
    for e = dmax - 1 downto 0 do
      w.(e) <- B.mul w.(e) !bp;
      if e > 0 then bp := B.mul !bp b
    done
  end;
  w

let sum w k =
  let acc = ref B.zero in
  for t = 0 to Array.length k.coeffs - 1 do
    let x = ref k.coeffs.(t) in
    for i = 0 to k.width - 1 do
      let f = w.(i).(k.exps.((t * k.width) + i)) in
      if not (B.is_one f) then x := B.mul !x f
    done;
    acc := B.add !acc !x
  done;
  !acc

(* Each variable is resolved once, denominator first: a point that
   misses a denominator variable raises [Not_found], one that zeroes the
   denominator raises [Division_by_zero] before any numerator-only
   variable is looked up. *)
let run p env =
  let nv = Array.length p.vars in
  let w = Array.make nv [||] in
  let resolve i = w.(i) <- powers (env (Var.of_id p.vars.(i))) p.dmax.(i) in
  for i = 0 to p.nden - 1 do
    resolve i
  done;
  let den = sum w p.pden in
  if B.is_zero den then raise Division_by_zero;
  let den = ref den in
  for i = p.nden to nv - 1 do
    resolve i;
    (* numerator-only variables sit at exponent 0 in every denominator term *)
    den := B.mul !den w.(i).(0)
  done;
  Q.make (B.mul (sum w p.pnum) p.pden.lcm) (B.mul !den p.pnum.lcm)

type t = { n : Poly.t; d : Poly.t; hkey : int; prog : program option Atomic.t }
(* Invariants: [d] is non-zero with leading coefficient 1; zero is [0/1];
   when the quotient is a polynomial it is stored with [d = 1].

   Nodes are hash-consed per domain (like Poly): [node] is the only
   constructor, so representation-equal quotients built on one domain are
   physically shared and the pointer test in {!equal} is the common case.
   Poly values are themselves interned, so the node hash is two O(1)
   field reads.

   [prog] memoises the node's evaluation program. Domains evaluating one
   node may race to compile it; each builds the same immutable program,
   so whichever [Atomic.set] lands last is as good as the first. *)

module Node = struct
  type nonrec t = t

  let equal a b = a == b || (a.hkey = b.hkey && Poly.equal a.n b.n && Poly.equal a.d b.d)
  let hash r = r.hkey
end

module Tbl = Hashcons.Make (Node)

let table = Tbl.domain_table ~size:512 ()

let node n d =
  Tbl.intern (table ())
    { n; d; hkey = (Poly.hash n * 65599) + Poly.hash d; prog = Atomic.make None }

let program r =
  match Atomic.get r.prog with
  | Some p -> p
  | None ->
    let p = compile r.n r.d in
    Atomic.set r.prog (Some p);
    p

let interned () = Tbl.count (table ())

(* Light normalization, used by every arithmetic operation: exact-division
   fast path + monic denominator. Full GCD cancellation lives in {!reduce}
   and is applied only to final results — running it inside the hot
   arithmetic (e.g. Gaussian elimination over this field) is prohibitively
   slow. *)
let normalize n d =
  if Poly.is_zero d then raise Division_by_zero;
  if Poly.is_zero n then node Poly.zero Poly.one
  else
    match Poly.divide_exact n d with
    | Some q -> node q Poly.one
    | None ->
      let c, dm = Poly.monic_factor d in
      node (Poly.scale (Q.inv c) n) dm

(* Full cancellation by polynomial GCD. *)
let cancel r =
  let g = Poly.gcd r.n r.d in
  if Poly.equal g Poly.one then r
  else
    match (Poly.divide_exact r.n g, Poly.divide_exact r.d g) with
    | Some n', Some d' ->
      let c, dm = Poly.monic_factor d' in
      node (Poly.scale (Q.inv c) n') dm
    | _ -> r (* unreachable: the gcd divides both *)

(* A reduced value is a final one, about to be evaluated or cached, so
   its evaluation program is compiled here. *)
let reduce r =
  let r = cancel r in
  ignore (program r);
  r

let make n d = normalize n d

let zero = node Poly.zero Poly.one
let of_poly p = node p Poly.one
let of_q q = of_poly (Poly.const q)
let of_int i = of_q (Q.of_int i)
let one = of_int 1
let var v = of_poly (Poly.var v)

let num r = r.n
let den r = r.d

let is_zero r = Poly.is_zero r.n
let is_const r = Poly.is_const r.n && Poly.is_const r.d

let to_q_opt r =
  match (Poly.to_q_opt r.n, Poly.to_q_opt r.d) with
  | Some a, Some b -> Some (Q.div a b)
  | _ -> None

let add a b =
  if Poly.equal a.d b.d then normalize (Poly.add a.n b.n) a.d
  else normalize (Poly.add (Poly.mul a.n b.d) (Poly.mul b.n a.d)) (Poly.mul a.d b.d)

let neg a = node (Poly.neg a.n) a.d
let sub a b = add a (neg b)

let mul a b =
  (* cross-cancel before multiplying to curb growth *)
  let n1, d2 =
    match Poly.divide_exact a.n b.d with
    | Some q -> (q, Poly.one)
    | None -> (a.n, b.d)
  in
  let n2, d1 =
    match Poly.divide_exact b.n a.d with
    | Some q -> (q, Poly.one)
    | None -> (b.n, a.d)
  in
  normalize (Poly.mul n1 n2) (Poly.mul d1 d2)

let inv a =
  if is_zero a then raise Division_by_zero;
  normalize a.d a.n

let div a b = mul a (inv b)

let eval env r = run (program r) env

let subst f r = make (Poly.subst f r.n) (Poly.subst f r.d)

let derivative v r =
  let n' = Poly.derivative v r.n and d' = Poly.derivative v r.d in
  normalize
    (Poly.sub (Poly.mul n' r.d) (Poly.mul r.n d'))
    (Poly.mul r.d r.d)

let equal a b =
  a == b
  || (Poly.equal a.n b.n && Poly.equal a.d b.d)
  || Poly.equal (Poly.mul a.n b.d) (Poly.mul b.n a.d)

let pp fmt r =
  let r = cancel r in
  if Poly.equal r.d Poly.one then Poly.pp fmt r.n
  else begin
    let needs_parens p = match Poly.to_q_opt p with Some _ -> false | None -> true in
    if needs_parens r.n then Format.fprintf fmt "(%a)" Poly.pp r.n else Poly.pp fmt r.n;
    Format.pp_print_string fmt " / ";
    if needs_parens r.d then Format.fprintf fmt "(%a)" Poly.pp r.d else Poly.pp fmt r.d
  end
