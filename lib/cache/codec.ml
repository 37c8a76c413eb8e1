module J = Tpan_obs.Jsonv
module Q = Tpan_mathkit.Q
module Var = Tpan_symbolic.Var
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun

let q_to_json q = J.Str (Q.to_string q)

let q_of_json = function
  | J.Str s | J.Raw s -> (try Some (Q.of_decimal_string s) with _ -> None)
  | J.Int n -> Some (Q.of_int n)
  | _ -> None

(* Inverse of [Var.name]: "E(x)" / "F(x)" / "f(x)" wrappers, bare labels
   are parameters. *)
let var_of_name s =
  let n = String.length s in
  let wrapped prefix =
    n > String.length prefix + 1
    && String.sub s 0 (String.length prefix) = prefix
    && s.[n - 1] = ')'
  in
  let label () = String.sub s 2 (n - 3) in
  if wrapped "E(" then Var.enabling (label ())
  else if wrapped "F(" then Var.firing (label ())
  else if wrapped "f(" then Var.frequency (label ())
  else Var.param s

let poly_to_json p =
  let terms =
    Poly.fold
      (fun mono c acc ->
        J.Obj
          [
            ("c", q_to_json c);
            ( "m",
              J.List
                (List.map
                   (fun (v, e) -> J.List [ J.Str (Var.name v); J.Int e ])
                   mono) );
          ]
        :: acc)
      p []
  in
  J.List (List.rev terms)

(* Replay runs under the caches' mutex, and [Rf.reduce] takes a gcd of
   the decoded polynomials, so one line naming x^100000 would hold every
   request behind it. Built closed forms have exponent 1; a line past
   the bound is skipped and its artifact rebuilt. *)
let max_exponent = 64

let poly_of_json doc =
  let exception Bad in
  let mono_of = function
    | J.List [ J.Str name; J.Int e ] when e >= 1 && e <= max_exponent ->
      Poly.pow (Poly.var (var_of_name name)) e
    | _ -> raise Bad
  in
  let term_of = function
    | J.Obj _ as t -> (
      match (J.member "c" t, J.member "m" t) with
      | Some c, Some (J.List monos) -> (
        match q_of_json c with
        | Some q ->
          List.fold_left (fun acc m -> Poly.mul acc (mono_of m)) (Poly.const q) monos
        | None -> raise Bad)
      | _ -> raise Bad)
    | _ -> raise Bad
  in
  match doc with
  | J.List terms -> (
    try Some (List.fold_left (fun acc t -> Poly.add acc (term_of t)) Poly.zero terms)
    with Bad -> None)
  | _ -> None

let ratfun_to_json r =
  J.Obj [ ("num", poly_to_json (Rf.num r)); ("den", poly_to_json (Rf.den r)) ]

let ratfun_of_json doc =
  match (J.member "num" doc, J.member "den" doc) with
  | Some n, Some d -> (
    match (poly_of_json n, poly_of_json d) with
    | Some num, Some den when not (Poly.is_zero den) ->
      (* [reduce] compiles the evaluation program, so a replayed entry
         weighs what a freshly built one does *)
      Some (Rf.reduce (Rf.make num den))
    | _ -> None)
  | _ -> None
