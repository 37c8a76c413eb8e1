module B = Bigint

type t = { n : B.t; d : B.t }
(* Invariants: [d] is positive; [gcd n d = 1]; zero is [0/1]. *)

let make n d =
  if B.is_zero d then raise Division_by_zero;
  if B.is_zero n then { n = B.zero; d = B.one }
  else begin
    let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
    let g = B.gcd n d in
    if B.is_one g then { n; d } else { n = B.div n g; d = B.div d g }
  end

let zero = { n = B.zero; d = B.one }
let of_bigint n = { n; d = B.one }
let of_int i = of_bigint (B.of_int i)
let of_ints n d = make (B.of_int n) (B.of_int d)
let one = of_int 1
let minus_one = of_int (-1)

let num q = q.n
let den q = q.d

let sign q = B.sign q.n
let is_zero q = B.is_zero q.n

let neg q = { q with n = B.neg q.n }
let abs q = { q with n = B.abs q.n }

let add a b =
  if B.equal a.d b.d then make (B.add a.n b.n) a.d
  else make (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)

let sub a b = add a (neg b)
let mul a b = make (B.mul a.n b.n) (B.mul a.d b.d)

let inv q =
  if is_zero q then raise Division_by_zero;
  if B.sign q.n < 0 then { n = B.neg q.d; d = B.neg q.n } else { n = q.d; d = q.n }

let div a b = mul a (inv b)

let compare a b = B.compare (B.mul a.n b.d) (B.mul b.n a.d)
let equal a b = B.equal a.n b.n && B.equal a.d b.d
let hash q = (B.hash q.n * 65599) + B.hash q.d

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_float q = B.to_float q.n /. B.to_float q.d

let to_string q =
  if B.is_one q.d then B.to_string q.n
  else B.to_string q.n ^ "/" ^ B.to_string q.d

let pp fmt q = Format.pp_print_string fmt (to_string q)

let pp_decimal ?(digits = 6) fmt q =
  let neg = sign q < 0 in
  let q = abs q in
  let ipart, rest = B.divmod q.n q.d in
  if neg then Format.pp_print_char fmt '-';
  Format.pp_print_string fmt (B.to_string ipart);
  if not (B.is_zero rest) then begin
    (* Long division one decimal digit at a time; stop early if exact. *)
    let buf = Buffer.create digits in
    let r = ref rest in
    let i = ref 0 in
    while (not (B.is_zero !r)) && !i < digits do
      let q10, r10 = B.divmod (B.mul !r (B.of_int 10)) q.d in
      Buffer.add_string buf (B.to_string q10);
      r := r10;
      incr i
    done;
    (* trim trailing zeros *)
    let s = Buffer.contents buf in
    let len = ref (String.length s) in
    while !len > 0 && s.[!len - 1] = '0' do decr len done;
    if !len > 0 then begin
      Format.pp_print_char fmt '.';
      Format.pp_print_string fmt (String.sub s 0 !len)
    end
  end

(* Literals come from outside (requests, nets, persisted lines), and
   [Bigint.of_string] takes time quadratic in their length with no
   checkpoint, so one long number could hold a request past its
   deadline. Real values are far shorter: ABP's throughput at the
   paper's point, 1805/1262234, has 12 characters. *)
let max_literal_length = 1000

let of_decimal_string s =
  if String.length s > max_literal_length then
    invalid_arg
      (Printf.sprintf "Q.of_decimal_string: longer than %d characters" max_literal_length);
  let s = String.trim s in
  if s = "" then invalid_arg "Q.of_decimal_string: empty";
  match String.index_opt s '/' with
  | Some i ->
    let n = B.of_string (String.sub s 0 i) in
    let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (B.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       if frac = "" then invalid_arg "Q.of_decimal_string: trailing dot";
       (* [B.of_string] would take a sign here: "1.-5" is not 1 - 0.5 *)
       if not (String.for_all (fun c -> c >= '0' && c <= '9') frac) then
         invalid_arg "Q.of_decimal_string: fraction part must be digits";
       let neg = String.length int_part > 0 && int_part.[0] = '-' in
       let ip = if int_part = "" || int_part = "-" || int_part = "+" then B.zero else B.of_string int_part in
       let scale = B.pow (B.of_int 10) (String.length frac) in
       let fp = B.of_string frac in
       let mag = B.add (B.mul (B.abs ip) scale) fp in
       make (if neg then B.neg mag else mag) scale)
