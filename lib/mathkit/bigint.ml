(* Exact integers in two representations.

   A value whose magnitude fits a native [int] is [Small n], and an
   operation on two small values runs natively with an overflow test. Only
   a value beyond 62 bits is [Big]: sign-magnitude over 15-bit limbs
   (little-endian int arrays). A mixed or overflowing operation converts
   its small side to limbs and runs the limb code, and a limb result that
   fits comes back [Small].

   Base 2^15 is chosen so that limb products (< 2^30) plus carries stay far
   below the 62-bit overflow boundary, which lets the Knuth algorithm-D
   quotient estimation below work with plain [int] arithmetic. *)

let base_bits = 15
let base = 1 lsl base_bits
let mask = base - 1

type t = Small of int | Big of { sign : int; mag : int array }
(* Invariants: [Small n] iff [-max_int <= n <= max_int], so [min_int] is
   [Big] and [neg] of a small value never overflows. In [Big], [sign] is
   -1 or 1 and the most significant limb [mag.(len-1)] is non-zero. Each
   value has exactly one representation, which [equal], [compare] and
   [hash] rely on. *)

let zero = Small 0
let one = Small 1
let minus_one = Small (-1)

(* Limbs of |n|. For [min_int] the logical shifts read its two's-complement
   bit pattern, which is already the magnitude 2^62. *)
let mag_of_int n =
  let m = Stdlib.abs n in
  let rec len m k = if m = 0 then k else len (m lsr base_bits) (k + 1) in
  Array.init (len m 0) (fun i -> (m lsr (i * base_bits)) land mask)

(* Index of the most significant non-zero limb; -1 for a zero magnitude. *)
let top mag =
  let rec go i = if i >= 0 && mag.(i) = 0 then go (i - 1) else i in
  go (Array.length mag - 1)

(* Normalize a raw magnitude: strip high zero limbs and come back [Small]
   below 2^62, that is, within 4 limbs, or 5 with a top limb below 4. *)
let make sign mag =
  let hi = top mag in
  if hi < 4 || (hi = 4 && mag.(4) < 4) then begin
    let v = ref 0 in
    for i = hi downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    Small (sign * !v)
  end
  else if hi = Array.length mag - 1 then Big { sign; mag }
  else Big { sign; mag = Array.sub mag 0 (hi + 1) }

let min_int_mag = mag_of_int min_int

let of_int n = if n = min_int then Big { sign = -1; mag = min_int_mag } else Small n

let sign = function
  | Small n -> if n > 0 then 1 else if n < 0 then -1 else 0
  | Big { sign; _ } -> sign

(* Sign and limbs of any value, for the limb path. *)
let parts = function
  | Small n as a -> (sign a, mag_of_int n)
  | Big { sign; mag } -> (sign, mag)

let is_zero = function Small 0 -> true | _ -> false
let is_one = function Small 1 -> true | _ -> false

let neg = function
  | Small n -> Small (-n)
  | Big { sign; mag } -> Big { sign = -sign; mag }

let abs a = if sign a < 0 then neg a else a

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

(* A [Big] magnitude exceeds every [Small] one, so a mixed comparison is
   decided by the big side's sign. *)
let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  | Small _, Big { sign; _ } -> -sign
  | Big { sign; _ }, Small _ -> sign
  | Big x, Big y ->
    if x.sign <> y.sign then Stdlib.compare x.sign y.sign else x.sign * cmp_mag x.mag y.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big _, Big _ -> compare a b = 0
  | _ -> false

(* The fold over 15-bit limbs from the low end, seeded with [sign + 2],
   whichever representation holds the value. *)
let hash a =
  match a with
  | Small n ->
    let rec go acc m = if m = 0 then acc else go ((acc * 31) + (m land mask)) (m lsr base_bits) in
    go (sign a + 2) (Stdlib.abs n) land max_int
  | Big { sign; mag } -> Array.fold_left (fun acc limb -> (acc * 31) + limb) (sign + 2) mag land max_int

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = if la > lb then la else lb in
  let out = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let da = if i < la then a.(i) else 0 and db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    out.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  out.(lmax) <- !carry;
  out

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let d = a.(i) - db - !borrow in
    if d < 0 then begin out.(i) <- d + base; borrow := 1 end
    else begin out.(i) <- d; borrow := 0 end
  done;
  out

let add_limbs a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let sa, ma = parts a and sb, mb = parts b in
    if sa = sb then make sa (add_mag ma mb)
    else begin
      let c = cmp_mag ma mb in
      if c = 0 then zero
      else if c > 0 then make sa (sub_mag ma mb)
      else make sb (sub_mag mb ma)
    end
  end

(* The sum overflowed iff both operands' signs differ from its sign; a sum
   of [min_int] fits the word but is [Big]. *)
let add a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x + y in
    if (x lxor s) land (y lxor s) >= 0 && s <> min_int then Small s else add_limbs a b
  | _ -> add_limbs a b

let sub a b = add a (neg b)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land mask;
        carry := v lsr base_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    end
  done;
  out

let mul_limbs a b =
  if is_zero a || is_zero b then zero
  else begin
    let sa, ma = parts a and sb, mb = parts b in
    make (sa * sb) (mul_mag ma mb)
  end

(* Factors below 2^31 cannot overflow; otherwise a wrapped product fails
   the division check. *)
let mul a b =
  match (a, b) with
  | Small x, Small y ->
    let p = x * y in
    if (Stdlib.abs x < 1 lsl 31 && Stdlib.abs y < 1 lsl 31) || y = 0 || (p / y = x && p <> min_int)
    then Small p
    else mul_limbs a b
  | _ -> mul_limbs a b

(* Divide magnitude by a single limb; returns (quotient, remainder limb). *)
let divmod_small_mag a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on magnitudes; returns (quotient, remainder).
   Preconditions: [Array.length b >= 2], [cmp_mag a b >= 0]. *)
let divmod_knuth a b =
  let shift =
    let top = b.(Array.length b - 1) in
    let rec go s t = if t >= base / 2 then s else go (s + 1) (t * 2) in
    go 0 top
  in
  let shl m s =
    if s = 0 then Array.copy m
    else begin
      let n = Array.length m in
      let out = Array.make (n + 1) 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let v = (m.(i) lsl s) lor !carry in
        out.(i) <- v land mask;
        carry := v lsr base_bits
      done;
      out.(n) <- !carry;
      out
    end
  in
  let shr m s =
    if s = 0 then Array.copy m
    else begin
      let n = Array.length m in
      let out = Array.make n 0 in
      let carry = ref 0 in
      for i = n - 1 downto 0 do
        let v = (!carry lsl base_bits) lor m.(i) in
        out.(i) <- v lsr s;
        carry := m.(i) land ((1 lsl s) - 1)
      done;
      out
    end
  in
  let u0 = shl a shift and v = shl b shift in
  let v =
    (* drop a possible top zero introduced by shl *)
    let n = Array.length v in
    if v.(n - 1) = 0 then Array.sub v 0 (n - 1) else v
  in
  let n = Array.length v in
  let m = Array.length u0 - n in
  let u = Array.append u0 [| 0 |] in
  let m = if m < 0 then 0 else m in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) in
  let vsec = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    let num = (((u.(j + n) lsl base_bits) lor u.(j + n - 1)) lsl 0) in
    let qhat = ref (num / vtop) in
    let rhat = ref (num mod vtop) in
    if !qhat >= base then begin
      rhat := !rhat + (vtop * (!qhat - (base - 1)));
      qhat := base - 1
    end;
    while !rhat < base && !qhat * vsec > ((!rhat lsl base_bits) lor (if j + n - 2 >= 0 then u.(j + n - 2) else 0)) do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* multiply-subtract *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
      else begin u.(i + j) <- d; borrow := 0 end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back *)
      u.(j + n) <- d + base;
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- s land mask;
        carry := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = shr (Array.sub u 0 n) shift in
  (q, r)

(* Native [/] and [mod] truncate, as the interface specifies; a small
   dividend over a [Big] divisor has quotient 0. *)
let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | Small _, Big _ -> (zero, a)
  | Big { sign = sa; mag = ma }, _ ->
    let sb, mb = parts b in
    if cmp_mag ma mb < 0 then (zero, a)
    else begin
      let qmag, rmag =
        if Array.length mb = 1 then begin
          let q, r = divmod_small_mag ma mb.(0) in
          (q, [| r |])
        end
        else divmod_knuth ma mb
      in
      (make (sa * sb) qmag, make sa rmag)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Euclid on limbs until both operands are small, then natively. *)
let rec gcd_loop a b =
  match (a, b) with
  | Small x, Small y ->
    let rec go x y = if y = 0 then x else go y (x mod y) in
    Small (go x y)
  | _ -> if is_zero b then a else gcd_loop b (rem a b)

let gcd a b = gcd_loop (abs a) (abs b)

let pow b n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (n lsr 1)
    end
  in
  go one b n

(* [min_int] is the one [Big] value that fits a native [int]. *)
let to_int_opt = function
  | Small n -> Some n
  | Big { sign; mag } -> if sign < 0 && cmp_mag mag min_int_mag = 0 then Some min_int else None

let to_float = function
  | Small n -> float_of_int n
  | Big { sign; mag } ->
    let v = Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) mag 0. in
    if sign < 0 then -.v else v

let to_string = function
  | Small n -> string_of_int n
  | Big { sign; mag } ->
    let chunks = ref [] in
    let m = ref mag in
    while Array.length !m > 0 do
      let q, r = divmod_small_mag !m 10000 in
      chunks := r :: !chunks;
      m := Array.sub q 0 (top q + 1)
    done;
    let buf = Buffer.create 16 in
    if sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf

(* At most 18 digits stay below 10^18 < 2^62 and parse natively; longer
   input takes the chunked parse, whose result [add] and [mul] normalize. *)
let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let is_neg, start =
    if s.[0] = '-' then (true, 1) else if s.[0] = '+' then (false, 1) else (false, 0)
  in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  for i = start to n - 1 do
    if s.[i] < '0' || s.[i] > '9' then invalid_arg "Bigint.of_string: bad digit"
  done;
  let digits i stop =
    let v = ref 0 in
    for k = i to stop - 1 do
      v := (!v * 10) + (Char.code s.[k] - Char.code '0')
    done;
    !v
  in
  let acc =
    if n - start <= 18 then Small (digits start n)
    else begin
      let acc = ref zero in
      let i = ref start in
      while !i < n do
        let stop = min n (!i + 4) in
        acc := add (mul !acc (pow (of_int 10) (stop - !i))) (of_int (digits !i stop));
        i := stop
      done;
      !acc
    end
  in
  if is_neg then neg acc else acc

let pp fmt a = Format.pp_print_string fmt (to_string a)
