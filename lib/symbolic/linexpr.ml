module Q = Tpan_mathkit.Q
module FM = Tpan_mathkit.Fourier_motzkin
module L = FM.Linform

type t = L.t
(* A Linexpr is a Linform whose variable ids are {!Var} ids. *)

let zero = L.zero
let const = L.const
let of_int i = L.const (Q.of_int i)
let var v = L.var (Var.id v)

let add = L.add
let sub = L.sub
let scale = L.scale
let neg = L.neg

let is_const = L.is_const
let to_q_opt e = if L.is_const e then Some (L.constant e) else None
let constant = L.constant
let coeff v e = L.coeff (Var.id v) e
let vars e = List.map Var.of_id (L.vars e)
let terms e = List.map (fun (i, c) -> (Var.of_id i, c)) (L.coeffs e)

let eval env e = L.eval (fun i -> env (Var.of_id i)) e

let subst f e =
  List.fold_left
    (fun acc (v, c) ->
      match f v with
      | None -> add acc (scale c (var v))
      | Some e' -> add acc (scale c e'))
    (const (constant e)) (terms e)

let equal = L.equal
let compare = L.compare
let hash = L.hash

let to_form e = e

let pp fmt e = L.pp ~name:(fun i -> Var.name (Var.of_id i)) fmt e
