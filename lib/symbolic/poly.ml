module Q = Tpan_mathkit.Q

(* Monomials: sorted (var id, exponent>0) lists, ordered by degree-lex.
   Deglex is multiplicative, which the exact-division loop relies on. *)
module Monomial = struct
  type t = (int * int) list

  let one : t = []

  let degree (m : t) = List.fold_left (fun acc (_, e) -> acc + e) 0 m

  (* Lex with smaller var ids more significant; higher exponent first. *)
  let rec lex (a : t) (b : t) =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | (va, ea) :: ra, (vb, eb) :: rb ->
      if va < vb then 1
      else if va > vb then -1
      else if ea <> eb then Stdlib.compare ea eb
      else lex ra rb

  let compare a b =
    let c = Stdlib.compare (degree a) (degree b) in
    if c <> 0 then c else lex a b

  let rec mul (a : t) (b : t) : t =
    match (a, b) with
    | [], m | m, [] -> m
    | (va, ea) :: ra, (vb, eb) :: rb ->
      if va < vb then (va, ea) :: mul ra b
      else if va > vb then (vb, eb) :: mul a rb
      else (va, ea + eb) :: mul ra rb

  (* [div a b] is [Some m] with [a = m·b] when [b] divides [a]. *)
  let rec div (a : t) (b : t) : t option =
    match (a, b) with
    | m, [] -> Some m
    | [], _ :: _ -> None
    | (va, ea) :: ra, (vb, eb) :: rb ->
      if va < vb then Option.map (fun m -> (va, ea) :: m) (div ra b)
      else if va > vb then None
      else if ea < eb then None
      else if ea = eb then div ra rb
      else Option.map (fun m -> (va, ea - eb) :: m) (div ra rb)

  let vars (m : t) = List.map fst m
end

module MMap = Map.Make (Monomial)

type t = { terms : Q.t MMap.t; hkey : int }
(* Hash-consed: every value is built by [intern], so within a domain
   structurally equal polynomials are one shared node, equality is
   pointer-first, and [hash] is a field read. Invariant on [terms]: no
   zero coefficients stored. *)

let raw_hash terms =
  MMap.fold
    (fun m c acc ->
      let mh = List.fold_left (fun h (v, e) -> (h * 31) + (v * 17) + e) 7 m in
      acc + (mh * 131) + Q.hash c)
    terms 0

module Node = struct
  type nonrec t = t

  let equal a b = a == b || (a.hkey = b.hkey && MMap.equal Q.equal a.terms b.terms)
  let hash p = p.hkey
end

module Tbl = Hashcons.Make (Node)

let table = Tbl.domain_table ~size:1024 ()
let intern terms = Tbl.intern (table ()) { terms; hkey = raw_hash terms }
let interned () = Tbl.count (table ())

let zero : t = intern MMap.empty
let const q : t = if Q.is_zero q then zero else intern (MMap.singleton Monomial.one q)
let one = const Q.one
let of_int i = const (Q.of_int i)
let var v : t = intern (MMap.singleton [ (Var.id v, 1) ] Q.one)

let is_zero p = MMap.is_empty p.terms

(* Hot operations work on raw maps and intern exactly once per public
   result: interning an intermediate (as a naive add-chain would) pays a
   structural hash and a weak-table probe per step for values that are
   dead an instant later. *)

let add (a : t) (b : t) : t =
  intern
    (MMap.union
       (fun _ x y -> let s = Q.add x y in if Q.is_zero s then None else Some s)
       a.terms b.terms)

let scale k (p : t) : t = if Q.is_zero k then zero else intern (MMap.map (Q.mul k) p.terms)
let neg p = scale Q.minus_one p

let sub (a : t) (b : t) : t =
  intern
    (MMap.merge
       (fun _ x y ->
         match (x, y) with
         | Some x, None -> Some x
         | None, Some y -> Some (Q.neg y)
         | Some x, Some y -> let d = Q.sub x y in if Q.is_zero d then None else Some d
         | None, None -> None)
       a.terms b.terms)

(* accumulate [acc + c·m·p] as a raw map *)
let raw_add_scaled acc m c (p : Q.t MMap.t) =
  MMap.fold
    (fun m' c' acc ->
      MMap.update (Monomial.mul m m')
        (function
          | None -> Some (Q.mul c c')
          | Some x ->
            let s = Q.add x (Q.mul c c') in
            if Q.is_zero s then None else Some s)
        acc)
    p acc

(* A product of large forms can take longer than a request's deadline
   allows, so every 64th outer term checkpoints the ambient token. *)
let mul (a : t) (b : t) : t =
  let n = ref 0 in
  intern
    (MMap.fold
       (fun m c acc ->
         incr n;
         if !n land 63 = 0 then Tpan_obs.Cancel.checkpoint ();
         raw_add_scaled acc m c b.terms)
       a.terms MMap.empty)

let rec pow p n =
  if n < 0 then invalid_arg "Poly.pow: negative exponent"
  else if n = 0 then one
  else begin
    let h = pow p (n / 2) in
    let h2 = mul h h in
    if n land 1 = 1 then mul h2 p else h2
  end

let of_linexpr e =
  List.fold_left
    (fun acc (v, c) -> add acc (scale c (var v)))
    (const (Linexpr.constant e))
    (Linexpr.terms e)

let is_const p = MMap.for_all (fun m _ -> m = Monomial.one) p.terms

let to_q_opt p =
  if is_zero p then Some Q.zero
  else if is_const p then MMap.find_opt Monomial.one p.terms
  else None

let degree p = MMap.fold (fun m _ acc -> Stdlib.max acc (Monomial.degree m)) p.terms (-1)

let size p = MMap.cardinal p.terms

let vars p =
  let module IS = Set.Make (Int) in
  let ids =
    MMap.fold
      (fun m _ acc -> List.fold_left (fun s v -> IS.add v s) acc (Monomial.vars m))
      p.terms IS.empty
  in
  List.map Var.of_id (IS.elements ids)

let subst f (p : t) =
  MMap.fold
    (fun m c acc ->
      let term =
        List.fold_left
          (fun acc (vid, e) ->
            let v = Var.of_id vid in
            let base = match f v with None -> var v | Some p' -> p' in
            mul acc (pow base e))
          (const c) m
      in
      add acc term)
    p.terms zero

let fold f (p : t) init =
  MMap.fold (fun m c acc -> f (List.map (fun (vid, e) -> (Var.of_id vid, e)) m) c acc) p.terms init

let derivative v (p : t) =
  let vid = Var.id v in
  intern
    (MMap.fold
       (fun m c acc ->
         match List.assoc_opt vid m with
         | None -> acc
         | Some e ->
           let m' =
             List.filter_map
               (fun (u, k) ->
                 if u = vid then (if k = 1 then None else Some (u, k - 1)) else Some (u, k))
               m
           in
           MMap.update m'
             (function
               | None -> Some (Q.mul c (Q.of_int e))
               | Some x ->
                 let s = Q.add x (Q.mul c (Q.of_int e)) in
                 if Q.is_zero s then None else Some s)
             acc)
       p.terms MMap.empty)

let leading p = MMap.max_binding_opt p.terms

let monic_factor p =
  match leading p with
  | None -> (Q.one, p)
  | Some (_, c) -> (c, scale (Q.inv c) p)

let divide_exact p d =
  if is_zero d then raise Division_by_zero;
  let dm, dc = match leading d with Some (m, c) -> (m, c) | None -> assert false in
  (* long division on raw maps; the leading term of [r] strictly decreases,
     so each quotient monomial is fresh and one intern at the end suffices *)
  let rec go q r =
    match MMap.max_binding_opt r with
    | None -> Some (intern q)
    | Some (rm, rc) ->
      (match Monomial.div rm dm with
       | None -> None
       | Some m ->
         let c = Q.div rc dc in
         go (MMap.add m c q) (raw_add_scaled r m (Q.neg c) d.terms))
  in
  go MMap.empty p.terms

(* Pointer-first: same-domain interning makes [a == b] the common case;
   the structural fallback covers values interned on different domains. *)
let equal (a : t) (b : t) = a == b || (a.hkey = b.hkey && MMap.equal Q.equal a.terms b.terms)
let compare (a : t) (b : t) = if a == b then 0 else MMap.compare Q.compare a.terms b.terms

(* ----- multivariate GCD (primitive Euclidean algorithm) -----

   Polynomials are viewed recursively: pick a main variable v, regard the
   polynomial as an element of R[v] with R = Q[remaining vars], and run
   Euclid with pseudo-division, keeping coefficients primitive via
   recursive content computation (Gauss's lemma). Coefficients are exact,
   inputs are small (probability expressions), so naive pseudo-remainder
   growth is acceptable. *)

(* decompose p by the exponent of variable [vid]: index i holds the
   Q[rest]-coefficient of v^i *)
let to_univar vid (p : t) : t array =
  let deg =
    MMap.fold
      (fun m _ acc -> Stdlib.max acc (Option.value ~default:0 (List.assoc_opt vid m)))
      p.terms 0
  in
  let out = Array.make (deg + 1) MMap.empty in
  MMap.iter
    (fun m c ->
      let e = Option.value ~default:0 (List.assoc_opt vid m) in
      let m' = List.filter (fun (u, _) -> u <> vid) m in
      out.(e) <- MMap.add m' c out.(e))
    p.terms;
  Array.map intern out

let from_univar vid (coeffs : t array) : t =
  let v_pow e : t = if e = 0 then one else intern (MMap.singleton [ (vid, e) ] Q.one) in
  Array.to_seq coeffs
  |> Seq.fold_lefti (fun acc e c -> add acc (mul c (v_pow e))) zero

let univar_degree coeffs =
  let rec go i = if i < 0 then -1 else if is_zero coeffs.(i) then go (i - 1) else i in
  go (Array.length coeffs - 1)

let rec gcd (a : t) (b : t) : t =
  if is_zero a then snd (monic_factor b)
  else if is_zero b then snd (monic_factor a)
  else begin
    match (to_q_opt a, to_q_opt b) with
    | Some _, _ | _, Some _ -> one (* a non-zero constant divides everything *)
    | None, None ->
      (* main variable: smallest id occurring in either *)
      let vid =
        let min_var p =
          MMap.fold
            (fun m _ acc ->
              List.fold_left (fun acc (u, _) -> Stdlib.min acc u) acc m)
            p.terms max_int
        in
        Stdlib.min (min_var a) (min_var b)
      in
      let ca, pa = content_and_primitive vid a in
      let cb, pb = content_and_primitive vid b in
      let c = gcd ca cb in
      let g = euclid vid pa pb in
      snd (monic_factor (mul c g))
  end

(* content = recursive gcd of the R-coefficients; primitive part = p / content *)
and content_and_primitive vid (p : t) =
  let coeffs = to_univar vid p in
  let content = Array.fold_left (fun acc c -> if is_zero c then acc else gcd acc c) zero coeffs in
  if is_zero content || equal content one then (one, p)
  else begin
    match divide_exact p content with
    | Some q -> (content, q)
    | None -> assert false (* the content divides every coefficient *)
  end

(* Euclid on primitive polynomials in R[v] using pseudo-remainders. *)
and euclid vid (p : t) (q : t) : t =
  let pc = to_univar vid p and qc = to_univar vid q in
  let dp = univar_degree pc and dq = univar_degree qc in
  if dq < 0 then p
  else if dp < dq then euclid vid q p
  else begin
    let r = pseudo_rem vid pc qc in
    if is_zero r then q (* q is primitive by construction *)
    else begin
      let _, pr = content_and_primitive vid r in
      euclid vid q pr
    end
  end

(* pseudo-remainder of p by q in the main variable: eliminate p's leading
   terms after scaling by q's leading coefficient *)
and pseudo_rem vid pc qc : t =
  let dq = univar_degree qc in
  let lq = qc.(dq) in
  let p = ref (Array.copy pc) in
  let continue_ = ref true in
  while !continue_ do
    Tpan_obs.Cancel.checkpoint ();
    let dp = univar_degree !p in
    if dp < dq then continue_ := false
    else begin
      let lp = (!p).(dp) in
      (* p <- lq·p - lp·v^(dp-dq)·q; the work array keeps p's physical size
         (its logical degree only ever shrinks) *)
      let next = Array.make (Array.length !p) zero in
      Array.iteri (fun i c -> next.(i) <- mul lq c) !p;
      for i = 0 to dq do
        next.(i + dp - dq) <- sub next.(i + dp - dq) (mul lp qc.(i))
      done;
      p := next
    end
  done;
  from_univar vid !p

let hash p = p.hkey

let pp fmt p =
  if is_zero p then Format.pp_print_string fmt "0"
  else begin
    (* print in decreasing monomial order *)
    let terms = List.rev (MMap.bindings p.terms) in
    let first = ref true in
    List.iter
      (fun (m, c) ->
        let s = Q.sign c in
        if !first then begin
          if s < 0 then Format.pp_print_string fmt "-";
          first := false
        end
        else Format.pp_print_string fmt (if s < 0 then " - " else " + ");
        let mag = Q.abs c in
        let pp_mono fmt m =
          let pr_first = ref true in
          List.iter
            (fun (vid, e) ->
              if not !pr_first then Format.pp_print_string fmt "*";
              pr_first := false;
              Format.pp_print_string fmt (Var.name (Var.of_id vid));
              if e > 1 then Format.fprintf fmt "^%d" e)
            m
        in
        if m = Monomial.one then Q.pp fmt mag
        else if Q.equal mag Q.one then pp_mono fmt m
        else Format.fprintf fmt "%a*%a" Q.pp mag pp_mono m)
      terms
  end
