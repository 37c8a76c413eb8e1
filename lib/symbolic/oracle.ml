module Q = Tpan_mathkit.Q
module FM = Tpan_mathkit.Fourier_motzkin
module L = FM.Linform
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

module Metrics = Tpan_obs.Metrics

type stats = {
  queries : int;
  trivial : int;
  hits : int;
  misses : int;
  witness_refutations : int;
  fm_runs : int;
  baseline_fm_runs : int;
}

(* Per-instance counters back the legacy [stats]/[reset_stats] API;
   every bump is mirrored into the process-wide registry aggregates
   below so `tpan profile` / `--metrics` see all oracles combined.
   [reset_stats] only touches the per-instance side. *)
type mutable_stats = {
  c_queries : Metrics.Counter.t;
  c_trivial : Metrics.Counter.t;
  c_hits : Metrics.Counter.t;
  c_misses : Metrics.Counter.t;
  c_witness_refutations : Metrics.Counter.t;
  c_fm_runs : Metrics.Counter.t;
  c_baseline : Metrics.Counter.t;
}

let g_queries = Metrics.counter "symbolic.oracle.queries"
let g_trivial = Metrics.counter "symbolic.oracle.trivial"
let g_hits = Metrics.counter "symbolic.oracle.memo_hits"
let g_misses = Metrics.counter "symbolic.oracle.memo_misses"
let g_witness_refutations = Metrics.counter "symbolic.oracle.witness_refutations"
let g_fm_runs = Metrics.counter "symbolic.oracle.fm_runs"
let g_baseline = Metrics.counter "symbolic.oracle.baseline_fm_runs"
let g_instances = Metrics.counter "symbolic.oracle.instances"

let bump local global =
  Metrics.Counter.incr local;
  Metrics.Counter.incr global

(* Cached knowledge about one canonical difference form [k] (first
   coefficient +1): does the store entail k ≥ 0 / k > 0, and the same for
   -k. A query form scaled by a negative factor lands on the co_ fields. *)
type verdict = {
  mutable nonneg : bool option;
  mutable pos : bool option;
  mutable co_nonneg : bool option;
  mutable co_pos : bool option;
}

module FormTbl = Hashtbl.Make (struct
  type t = L.t

  let equal = L.equal
  let hash = L.hash
end)

(* Canonical memo keys are interned before they touch the memo table, so
   the repeated queries an analysis makes for one difference form share a
   single key node instead of re-allocating the scaled form each time.
   The table is per-instance (oracles are single-domain), weak (dead keys
   are collectable), and shared between lookup and insert. *)
module KeyTbl = Hashcons.Make (struct
  type t = L.t

  let equal = L.equal
  let hash = L.hash
end)

type t = {
  store : FM.constr list;  (* preprocessed inequalities, nonneg closure included *)
  subst : L.t IntMap.t;  (* equality-eliminated variable -> definition *)
  covered : IntSet.t;  (* time vars whose non-negativity the store already carries *)
  known : IntSet.t;  (* vars the witness assignment speaks for (default 0) *)
  witness_env : (int -> Q.t) option;
  consistent : bool;
  memo : verdict FormTbl.t;
  keys : KeyTbl.table;
  s : mutable_stats;
}

(* Replace every equality-eliminated variable by its definition. The subst
   map is idempotent (definitions contain no eliminated variables), so one
   pass suffices. *)
let subst_form subst f =
  if IntMap.is_empty subst then f
  else
    List.fold_left
      (fun acc (v, c) ->
        match IntMap.find_opt v subst with
        | None -> L.add acc (L.scale c (L.var v))
        | Some def -> L.add acc (L.scale c def))
      (L.const (L.constant f)) (L.coeffs f)

let to_fm_parts (rel : Constraints.relation) lhs rhs =
  let a = Linexpr.to_form lhs and b = Linexpr.to_form rhs in
  match rel with
  | `Ge -> (FM.ge a b).FM.form, `Ineq FM.Ge
  | `Gt -> (FM.gt a b).FM.form, `Ineq FM.Gt
  | `Le -> (FM.ge b a).FM.form, `Ineq FM.Ge
  | `Lt -> (FM.gt b a).FM.form, `Ineq FM.Gt
  | `Eq -> (FM.eq a b).FM.form, `Equality

let fresh_stats () =
  {
    c_queries = Metrics.Counter.create ();
    c_trivial = Metrics.Counter.create ();
    c_hits = Metrics.Counter.create ();
    c_misses = Metrics.Counter.create ();
    c_witness_refutations = Metrics.Counter.create ();
    c_fm_runs = Metrics.Counter.create ();
    c_baseline = Metrics.Counter.create ();
  }

let make cs =
  Metrics.Counter.incr g_instances;
  let entries = Constraints.constraints cs in
  let parts = List.map (fun (_, rel, lhs, rhs) -> to_fm_parts rel lhs rhs) entries in
  (* Collect the time symbols mentioned anywhere: their non-negativity is
     part of the system (Constraints.fm_system adds it per query; we bake
     it into the store once). *)
  let time_vars =
    List.fold_left
      (fun acc (f, _) ->
        List.fold_left
          (fun acc v -> if Var.is_time (Var.of_id v) then IntSet.add v acc else acc)
          acc (L.vars f))
      IntSet.empty parts
  in
  (* Equality substitution: each equality [f = 0] defines one of its
     variables; definitions are kept mutually substituted (triangular). *)
  let consistent = ref true in
  let subst, ineqs =
    List.fold_left
      (fun (subst, ineqs) (f, kind) ->
        match kind with
        | `Ineq rel -> (subst, (f, rel) :: ineqs)
        | `Equality ->
          let f = subst_form subst f in
          if L.is_const f then begin
            if not (Q.is_zero (L.constant f)) then consistent := false;
            (subst, ineqs)
          end
          else begin
            (* prefer a unit coefficient; otherwise take the first *)
            let coeffs = L.coeffs f in
            let v, c =
              match List.find_opt (fun (_, c) -> Q.equal (Q.abs c) Q.one) coeffs with
              | Some vc -> vc
              | None -> List.hd coeffs
            in
            (* v = -(f - c·v)/c *)
            let def = L.scale (Q.neg (Q.inv c)) (L.add f (L.scale (Q.neg c) (L.var v))) in
            let subst = IntMap.map (fun d -> subst_form (IntMap.singleton v def) d) subst in
            (IntMap.add v def subst, ineqs)
          end)
      (IntMap.empty, []) parts
  in
  (* The subst map is only final now — apply it to every inequality,
     including ones recorded before the equality that defined a variable. *)
  let ineqs = List.map (fun (f, rel) -> { FM.form = subst_form subst f; rel }) ineqs in
  (* Non-negativity closure: for an eliminated time var the constraint
     lands on its definition. *)
  let nonneg =
    IntSet.fold
      (fun v acc -> FM.ge (subst_form subst (L.var v)) L.zero :: acc)
      time_vars []
  in
  let store, consistent =
    if not !consistent then ([], false)
    else
      match FM.normalize_system (nonneg @ ineqs) with
      | None -> ([], false)
      | Some store -> (store, true)
  in
  let covered = IntSet.filter (fun v -> not (IntMap.mem v subst)) time_vars in
  let known =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc v -> IntSet.add v acc) acc (L.vars c.FM.form))
      covered store
  in
  let witness_env, consistent =
    if not consistent then (None, false)
    else begin
      (* Prefer a point in the strict interior: strengthening every bound
         to strict maximizes the filter's refutation power. *)
      let strict = List.map (fun c -> { c with FM.rel = FM.Gt }) store in
      match FM.find_model strict with
      | Some bindings -> (Some bindings, true)
      | None ->
        (match FM.find_model store with
         | Some bindings -> (Some bindings, true)
         | None -> (None, false))
    end
  in
  let witness_env =
    Option.map
      (fun bindings ->
        let m = List.fold_left (fun acc (v, q) -> IntMap.add v q acc) IntMap.empty bindings in
        fun v ->
          match IntMap.find_opt v m with
          | Some q -> q
          | None -> if IntSet.mem v known then Q.zero else Q.one)
      witness_env
  in
  {
    store;
    subst;
    covered;
    known;
    witness_env;
    consistent;
    memo = FormTbl.create 64;
    keys = KeyTbl.create 64;
    s = fresh_stats ();
  }

let is_consistent o = o.consistent

let witness o =
  match o.witness_env with
  | None -> None
  | Some env ->
    let base = IntSet.fold (fun v acc -> (Var.of_id v, env v) :: acc) o.known [] in
    (* equality-eliminated variables get their definition's value, so the
       result is a model of the original system, equalities included *)
    Some (IntMap.fold (fun v def acc -> (Var.of_id v, L.eval env def) :: acc) o.subst base)

(* ---------------- the decision core ---------------- *)

(* Non-negativity constraints for query time vars the store does not
   already cover (Constraints.fm_system's [extra] argument, on demand). *)
let query_extras o d =
  List.filter_map
    (fun v ->
      if IntSet.mem v o.covered then None
      else if Var.is_time (Var.of_id v) then Some (FM.ge (L.var v) L.zero)
      else None)
    (L.vars d)

let run_fm o goal_neg d =
  bump o.s.c_fm_runs g_fm_runs;
  not (FM.feasible (goal_neg :: (query_extras o d @ o.store)))

type field = Nonneg | Pos

let lookup o key flipped field =
  match FormTbl.find_opt o.memo key with
  | None -> None
  | Some v ->
    (match (field, flipped) with
     | Nonneg, false -> v.nonneg
     | Pos, false -> v.pos
     | Nonneg, true -> v.co_nonneg
     | Pos, true -> v.co_pos)

let remember o key flipped field value =
  let v =
    match FormTbl.find_opt o.memo key with
    | Some v -> v
    | None ->
      let v = { nonneg = None; pos = None; co_nonneg = None; co_pos = None } in
      FormTbl.add o.memo key v;
      v
  in
  (match (field, flipped) with
   | Nonneg, false -> v.nonneg <- Some value
   | Pos, false -> v.pos <- Some value
   | Nonneg, true -> v.co_nonneg <- Some value
   | Pos, true -> v.co_pos <- Some value)

(* Does the store entail [d ≥ 0] (Nonneg) or [d > 0] (Pos)? *)
let decide o field d =
  bump o.s.c_queries g_queries;
  if L.is_const d then begin
    bump o.s.c_trivial g_trivial;
    let s = Q.sign (L.constant d) in
    (not o.consistent) || (match field with Nonneg -> s >= 0 | Pos -> s > 0)
  end
  else if not o.consistent then begin
    (* vacuous: every model (there are none) satisfies everything *)
    bump o.s.c_trivial g_trivial;
    true
  end
  else begin
    let k =
      match L.coeffs d with (_, k) :: _ -> k | [] -> assert false
    in
    let key = KeyTbl.intern o.keys (L.scale (Q.inv (Q.abs k)) d) in
    let flipped = Q.sign k < 0 in
    match lookup o key flipped field with
    | Some v ->
      bump o.s.c_hits g_hits;
      v
    | None ->
      bump o.s.c_misses g_misses;
      let refuted =
        match o.witness_env with
        | None -> false
        | Some env ->
          let s = Q.sign (L.eval env d) in
          (match field with Nonneg -> s < 0 | Pos -> s <= 0)
      in
      let value =
        if refuted then begin
          bump o.s.c_witness_refutations g_witness_refutations;
          false
        end
        else
          let goal_neg =
            (* ¬(d ≥ 0) is -d > 0; ¬(d > 0) is -d ≥ 0 *)
            match field with
            | Nonneg -> { FM.form = L.neg d; rel = FM.Gt }
            | Pos -> { FM.form = L.neg d; rel = FM.Ge }
          in
          run_fm o goal_neg d
      in
      remember o key flipped field value;
      value
  end

let charge o n =
  Metrics.Counter.add o.s.c_baseline n;
  Metrics.Counter.add g_baseline n

(* ---------------- public queries ---------------- *)

let diff o a b = subst_form o.subst (L.sub (Linexpr.to_form a) (Linexpr.to_form b))

let entails o (rel : Constraints.relation) a b =
  match rel with
  | `Ge -> charge o 1; decide o Nonneg (diff o a b)
  | `Gt -> charge o 1; decide o Pos (diff o a b)
  | `Le -> charge o 1; decide o Nonneg (diff o b a)
  | `Lt -> charge o 1; decide o Pos (diff o b a)
  | `Eq ->
    (* direct procedure order: refute [d > 0] first, then [d < 0] *)
    let d = diff o a b in
    if not (decide o Nonneg (L.neg d)) then begin charge o 1; false end
    else begin charge o 2; decide o Nonneg d end

let compare_exprs o a b : Constraints.comparison =
  let d = diff o b a in
  if decide o Pos d then begin charge o 1; Constraints.Lt end
  else if decide o Pos (L.neg d) then begin charge o 2; Constraints.Gt end
  else if not (decide o Nonneg (L.neg d)) then begin charge o 3; Constraints.Unknown end
  else begin
    charge o 4;
    if decide o Nonneg d then Constraints.Eq else Constraints.Unknown
  end

(* ---------------- statistics ---------------- *)

let stats o =
  {
    queries = Metrics.Counter.value o.s.c_queries;
    trivial = Metrics.Counter.value o.s.c_trivial;
    hits = Metrics.Counter.value o.s.c_hits;
    misses = Metrics.Counter.value o.s.c_misses;
    witness_refutations = Metrics.Counter.value o.s.c_witness_refutations;
    fm_runs = Metrics.Counter.value o.s.c_fm_runs;
    baseline_fm_runs = Metrics.Counter.value o.s.c_baseline;
  }

let reset_stats o =
  Metrics.Counter.reset o.s.c_queries;
  Metrics.Counter.reset o.s.c_trivial;
  Metrics.Counter.reset o.s.c_hits;
  Metrics.Counter.reset o.s.c_misses;
  Metrics.Counter.reset o.s.c_witness_refutations;
  Metrics.Counter.reset o.s.c_fm_runs;
  Metrics.Counter.reset o.s.c_baseline

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>queries              %d@,trivial              %d@,memo hits            %d@,\
     memo misses          %d@,witness refutations  %d@,FM runs              %d@,\
     FM runs (uncached)   %d@]"
    s.queries s.trivial s.hits s.misses s.witness_refutations s.fm_runs s.baseline_fm_runs
