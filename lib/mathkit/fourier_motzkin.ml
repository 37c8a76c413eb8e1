module IntMap = Map.Make (Int)

module Linform = struct
  type t = { coeffs : Q.t IntMap.t; const : Q.t }
  (* Invariant: no zero coefficient is stored. *)

  let norm coeffs = IntMap.filter (fun _ c -> not (Q.is_zero c)) coeffs

  let const q = { coeffs = IntMap.empty; const = q }
  let zero = const Q.zero
  let var v = { coeffs = IntMap.singleton v Q.one; const = Q.zero }

  let of_list l c =
    let coeffs =
      List.fold_left
        (fun acc (v, q) ->
          let cur = Option.value ~default:Q.zero (IntMap.find_opt v acc) in
          IntMap.add v (Q.add cur q) acc)
        IntMap.empty l
    in
    { coeffs = norm coeffs; const = c }

  let add a b =
    let coeffs =
      IntMap.union (fun _ x y -> let s = Q.add x y in if Q.is_zero s then None else Some s) a.coeffs b.coeffs
    in
    { coeffs; const = Q.add a.const b.const }

  let scale k a =
    if Q.is_zero k then zero
    else { coeffs = IntMap.map (Q.mul k) a.coeffs; const = Q.mul k a.const }

  let neg a = scale Q.minus_one a
  let sub a b = add a (neg b)

  let constant a = a.const
  let coeff v a = Option.value ~default:Q.zero (IntMap.find_opt v a.coeffs)
  let coeffs a = IntMap.bindings a.coeffs
  let is_const a = IntMap.is_empty a.coeffs
  let vars a = List.map fst (IntMap.bindings a.coeffs)

  let equal a b = Q.equal a.const b.const && IntMap.equal Q.equal a.coeffs b.coeffs

  let compare a b =
    let c = Q.compare a.const b.const in
    if c <> 0 then c else IntMap.compare Q.compare a.coeffs b.coeffs

  let hash a =
    IntMap.fold (fun v c acc -> (acc * 31) + (v * 7) + Q.hash c) a.coeffs (Q.hash a.const)

  let eval env a =
    IntMap.fold (fun v c acc -> Q.add acc (Q.mul c (env v))) a.coeffs a.const

  let pp ?(name = fun v -> Printf.sprintf "x%d" v) fmt a =
    let terms = coeffs a in
    if terms = [] then Q.pp fmt a.const
    else begin
      let first = ref true in
      let print_term v c =
        let s = Q.sign c in
        if !first then begin
          if s < 0 then Format.pp_print_string fmt "-";
          first := false
        end
        else Format.pp_print_string fmt (if s < 0 then " - " else " + ");
        let m = Q.abs c in
        if not (Q.equal m Q.one) then Format.fprintf fmt "%a*" Q.pp m;
        Format.pp_print_string fmt (name v)
      in
      List.iter (fun (v, c) -> print_term v c) terms;
      if not (Q.is_zero a.const) then begin
        let s = Q.sign a.const in
        Format.pp_print_string fmt (if s < 0 then " - " else " + ");
        Q.pp fmt (Q.abs a.const)
      end
    end
end

type relation = Ge | Gt | Eq

type constr = { form : Linform.t; rel : relation }

let ge a b = { form = Linform.sub a b; rel = Ge }
let gt a b = { form = Linform.sub a b; rel = Gt }
let eq a b = { form = Linform.sub a b; rel = Eq }

let satisfies env c =
  let v = Linform.eval env c.form in
  match c.rel with
  | Ge -> Q.sign v >= 0
  | Gt -> Q.sign v > 0
  | Eq -> Q.sign v = 0

(* ------------------------------------------------------------------ *)
(* Fourier–Motzkin kernel.                                            *)
(*                                                                    *)
(* Equalities are split into a pair of opposite inequalities first.   *)
(* Between elimination rounds the constraint set is pruned            *)
(* (Imbert-style): every inequality is scaled to a canonical          *)
(* direction, proportional constraints are collapsed to the strongest *)
(* one, and satisfied constant constraints are dropped. The variable  *)
(* to eliminate is the one minimizing |lower|·|upper| so intermediate *)
(* sets grow as slowly as possible.                                   *)
(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)
module FormMap = Map.Make (Linform)

module Metrics = Tpan_obs.Metrics

let m_feasible_checks = Metrics.counter "mathkit.fm.feasible_checks"
let m_eliminations = Metrics.counter "mathkit.fm.eliminations"
let m_constraints_pruned = Metrics.counter "mathkit.fm.constraints_pruned"
let m_find_model_calls = Metrics.counter "mathkit.fm.find_model_calls"

let split c =
  match c.rel with
  | Eq -> [ { form = c.form; rel = Ge }; { form = Linform.neg c.form; rel = Ge } ]
  | Ge | Gt -> [ c ]

(* Is a variable-free constraint satisfied? *)
let const_holds rel k =
  match rel with Ge -> Q.sign k >= 0 | Gt -> Q.sign k > 0 | Eq -> Q.sign k = 0

(* Canonical scale: make the lowest-variable coefficient ±1 (scaling by a
   positive factor preserves the inequality). Two same-direction proportional
   constraints then share the same coefficient vector and are comparable by
   constant alone: [L + c ≥ 0] is stronger the smaller [c] is (at equal [c],
   [Gt] wins). Opposite directions keep distinct keys, as they must. *)
let canonical c =
  match Linform.coeffs c.form with
  | [] -> c
  | (_, k) :: _ ->
    let m = Q.abs k in
    if Q.equal m Q.one then c else { c with form = Linform.scale (Q.inv m) c.form }

(* Prune a set of inequalities ([Ge]/[Gt] only). [None] means a constant
   constraint is violated, i.e. the set is trivially infeasible. *)
let prune cs =
  let exception Infeasible in
  try
    let keyed =
      List.fold_left
        (fun acc c ->
          if Linform.is_const c.form then
            if const_holds c.rel (Linform.constant c.form) then acc else raise Infeasible
          else begin
            let c = canonical c in
            (* key on the coefficient vector only *)
            let key = Linform.add c.form (Linform.const (Q.neg (Linform.constant c.form))) in
            let cst = Linform.constant c.form in
            match FormMap.find_opt key acc with
            | None -> FormMap.add key (cst, c.rel) acc
            | Some (cst', rel') ->
              let cmp = Q.compare cst cst' in
              if cmp < 0 || (cmp = 0 && c.rel = Gt && rel' = Ge) then
                FormMap.add key (cst, c.rel) acc
              else acc
          end)
        FormMap.empty cs
    in
    let kept =
      FormMap.fold
        (fun key (cst, rel) acc -> { form = Linform.add key (Linform.const cst); rel } :: acc)
        keyed []
    in
    Metrics.Counter.add m_constraints_pruned (List.length cs - List.length kept);
    Some kept
  with Infeasible -> None

let all_vars cs =
  List.fold_left
    (fun acc c -> List.fold_left (fun acc v -> IntSet.add v acc) acc (Linform.vars c.form))
    IntSet.empty cs

(* Min-product heuristic: eliminating [v] replaces |lower|+|upper|
   constraints by |lower|·|upper| combinations; pick the cheapest. *)
let pick_var cs vars =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (v, a) ->
          let lo, up = Option.value ~default:(0, 0) (Hashtbl.find_opt counts v) in
          if Q.sign a > 0 then Hashtbl.replace counts v (lo + 1, up)
          else Hashtbl.replace counts v (lo, up + 1))
        (Linform.coeffs c.form))
    cs;
  let cost v =
    let lo, up = Option.value ~default:(0, 0) (Hashtbl.find_opt counts v) in
    lo * up
  in
  let best =
    IntSet.fold
      (fun v acc ->
        match acc with
        | None -> Some (v, cost v)
        | Some (_, c) -> if cost v < c then Some (v, cost v) else acc)
      vars None
  in
  match best with Some (v, _) -> v | None -> invalid_arg "pick_var: empty"

let partition v cs =
  List.fold_left
    (fun (lo, up, rest) c ->
      let a = Linform.coeff v c.form in
      if Q.is_zero a then (lo, up, c :: rest)
      else if Q.sign a > 0 then (c :: lo, up, rest)
      else (lo, c :: up, rest))
    ([], [], []) cs

(* A pair (l: a·v + L' ≥/> 0 with a>0) and (u: b·v + U' ≥/> 0 with b<0)
   combines into (-b)·(l.form) + a·(u.form) ≥/> 0, which cancels v. *)
let eliminate v cs =
  (* one checkpoint per elimination round: rounds are where FM blows up
     (the constraint set can square each time), so this bounds the
     reaction time to a deadline without touching the inner products *)
  Tpan_obs.Cancel.checkpoint ();
  Metrics.Counter.incr m_eliminations;
  let lower, upper, rest = partition v cs in
  let combine l u =
    let a = Linform.coeff v l.form and b = Linform.coeff v u.form in
    let form = Linform.add (Linform.scale (Q.neg b) l.form) (Linform.scale a u.form) in
    let rel = match (l.rel, u.rel) with Gt, _ | _, Gt -> Gt | _ -> Ge in
    { form; rel }
  in
  List.fold_left (fun acc l -> List.fold_left (fun acc u -> combine l u :: acc) acc upper) rest lower

let normalize_system constraints = prune (List.concat_map split constraints)

let feasible constraints =
  Metrics.Counter.incr m_feasible_checks;
  let rec run = function
    | None -> false
    | Some [] -> true
    | Some cs ->
      let vars = all_vars cs in
      if IntSet.is_empty vars then true (* prune leaves no constant constraints *)
      else run (prune (eliminate (pick_var cs vars) cs))
  in
  run (normalize_system constraints)

(* Model construction: eliminate every variable remembering its bounding
   constraints, then back-substitute choosing a value inside each interval
   (the midpoint where the interval is wide — an interior point serves the
   oracle's witness filter better than a boundary one). Variables dropped
   along the way default to 0; callers must treat absent variables as 0. *)
let find_model constraints =
  Metrics.Counter.incr m_find_model_calls;
  let rec go cs =
    match prune cs with
    | None -> None
    | Some [] -> Some IntMap.empty
    | Some cs ->
      let vars = all_vars cs in
      if IntSet.is_empty vars then Some IntMap.empty
      else begin
        let v = pick_var cs vars in
        let lower, upper, _rest = partition v cs in
        match go (eliminate v cs) with
        | None -> None
        | Some m ->
          let env u = Option.value ~default:Q.zero (IntMap.find_opt u m) in
          (* value of the v-free remainder: v itself is absent from m *)
          let bound c =
            let a = Linform.coeff v c.form in
            (Q.div (Q.neg (Linform.eval env c.form)) a, c.rel = Gt)
          in
          let max_bound acc c =
            let b, strict = bound c in
            match acc with
            | None -> Some (b, strict)
            | Some (b', s') ->
              let cmp = Q.compare b b' in
              if cmp > 0 || (cmp = 0 && strict && not s') then Some (b, strict) else acc
          in
          let min_bound acc c =
            let b, strict = bound c in
            match acc with
            | None -> Some (b, strict)
            | Some (b', s') ->
              let cmp = Q.compare b b' in
              if cmp < 0 || (cmp = 0 && strict && not s') then Some (b, strict) else acc
          in
          let lo = List.fold_left max_bound None lower in
          let up = List.fold_left min_bound None upper in
          let value =
            match (lo, up) with
            | None, None -> Q.zero
            | Some (l, _), None -> Q.add l Q.one
            | None, Some (u, _) -> Q.sub u Q.one
            | Some (l, _), Some (u, _) ->
              if Q.compare l u < 0 then Q.div (Q.add l u) (Q.of_int 2)
              else l (* the projection guarantees l = u is attainable *)
          in
          Some (IntMap.add v value m)
      end
  in
  match go (List.concat_map split constraints) with
  | None -> None
  | Some m ->
    (* Defensive: only ever hand out assignments that actually are models. *)
    let env u = Option.value ~default:Q.zero (IntMap.find_opt u m) in
    if List.for_all (satisfies env) constraints then Some (IntMap.bindings m) else None

let entails cs c =
  match c.rel with
  | Ge -> not (feasible ({ form = Linform.neg c.form; rel = Gt } :: cs))
  | Gt -> not (feasible ({ form = Linform.neg c.form; rel = Ge } :: cs))
  | Eq ->
    (not (feasible ({ form = c.form; rel = Gt } :: cs)))
    && not (feasible ({ form = Linform.neg c.form; rel = Gt } :: cs))

type comparison = Always_lt | Always_eq | Always_gt | Unknown

let compare_forms cs a b =
  let d = Linform.sub b a in
  if entails cs { form = d; rel = Gt } then Always_lt
  else if entails cs { form = Linform.neg d; rel = Gt } then Always_gt
  else if entails cs { form = d; rel = Eq } then Always_eq
  else Unknown
