module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Poly = Tpan_symbolic.Poly
module Constraints = Tpan_symbolic.Constraints

type time_spec = Fixed of Q.t | Sym of Var.t
type freq_spec = Freq of Q.t | Freq_sym of Var.t

type spec = { enabling : time_spec; firing : time_spec; frequency : freq_spec }

let spec ?(enabling = Fixed Q.zero) ?(firing = Fixed Q.zero) ?(frequency = Freq Q.one) () =
  { enabling; firing; frequency }

let fixed q = Fixed q
let sym_enabling label = Sym (Var.enabling label)
let sym_firing label = Sym (Var.firing label)

type t = {
  net : Net.t;
  specs : spec array;
  constraints : Constraints.t;
  oracle : Tpan_symbolic.Oracle.t Lazy.t;
      (* built once per constraint system; all symbolic ordering queries go
         through it (preprocessing + witness filter + memoized verdicts) *)
  cs_of : int array; (* transition -> conflict-set id *)
  css : Net.trans list array; (* conflict-set id -> members *)
}

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* Conflict sets = connected components of the structural conflict relation.
   The paper requires a partition into *disjoint* sets with every pair of
   structurally conflicting transitions in the same set; the finest such
   partition is the transitive closure of the relation. *)
let compute_conflict_sets net =
  let nt = Net.num_transitions net in
  let parent = Array.init nt Fun.id in
  let rec find i = if parent.(i) = i then i else begin parent.(i) <- find parent.(i); parent.(i) end in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  List.iter
    (fun p ->
      match Net.consumers net p with
      | [] -> ()
      | first :: rest -> List.iter (fun t -> union first t) rest)
    (Net.places net);
  let ids = Hashtbl.create 16 in
  let cs_of = Array.make nt 0 in
  let next = ref 0 in
  for t = 0 to nt - 1 do
    let r = find t in
    let id =
      match Hashtbl.find_opt ids r with
      | Some id -> id
      | None ->
        let id = !next in
        incr next;
        Hashtbl.add ids r id;
        id
    in
    cs_of.(t) <- id
  done;
  let css = Array.make !next [] in
  for t = nt - 1 downto 0 do
    css.(cs_of.(t)) <- t :: css.(cs_of.(t))
  done;
  (cs_of, css)

let check_time_spec name what = function
  | Fixed q -> if Q.sign q < 0 then unsupported "%s of %s is negative" what name
  | Sym _ -> ()

let make ?(constraints = Constraints.empty) ?(conflict_sets = []) net specs_alist =
  let nt = Net.num_transitions net in
  let specs = Array.make nt (spec ()) in
  let seen = Array.make nt false in
  List.iter
    (fun (name, s) ->
      let t =
        try Net.trans_of_name net name
        with Not_found -> invalid_arg (Printf.sprintf "Tpn.make: unknown transition %S" name)
      in
      if seen.(t) then invalid_arg (Printf.sprintf "Tpn.make: duplicate spec for %S" name);
      seen.(t) <- true;
      check_time_spec name "enabling time" s.enabling;
      check_time_spec name "firing time" s.firing;
      (match s.frequency with
       | Freq q -> if Q.sign q < 0 then unsupported "frequency of %s is negative" name
       | Freq_sym _ -> ());
      specs.(t) <- s)
    specs_alist;
  Array.iteri
    (fun t b ->
      if not b then
        invalid_arg (Printf.sprintf "Tpn.make: missing spec for transition %S" (Net.trans_name net t)))
    seen;
  let cs_of, css = compute_conflict_sets net in
  (* Optional frequency override blocks: validate against the structural
     partition, then rewrite frequencies. *)
  List.iter
    (fun (names, freqs) ->
      if List.length names <> List.length freqs then
        invalid_arg "Tpn.make: conflict set names/frequencies length mismatch";
      let ts = List.map (Net.trans_of_name net) names in
      (match ts with
       | [] -> invalid_arg "Tpn.make: empty conflict set"
       | t0 :: rest ->
         List.iter
           (fun t ->
             if cs_of.(t) <> cs_of.(t0) then
               unsupported
                 "declared conflict set {%s} does not match the structural partition"
                 (String.concat ", " names))
           rest);
      List.iter2
        (fun t f ->
          if Q.sign f < 0 then unsupported "frequency of %s is negative" (Net.trans_name net t);
          specs.(t) <- { (specs.(t)) with frequency = Freq f })
        ts freqs)
    conflict_sets;
  { net; specs; constraints; oracle = lazy (Tpan_symbolic.Oracle.make constraints); cs_of; css }

let net g = g.net
let constraints g = g.constraints
let oracle g = Lazy.force g.oracle
let enabling g t = g.specs.(t).enabling
let firing g t = g.specs.(t).firing
let frequency g t = g.specs.(t).frequency

let time_expr = function Fixed q -> Lin.const q | Sym v -> Lin.var v

let enabling_expr g t = time_expr g.specs.(t).enabling
let firing_expr g t = time_expr g.specs.(t).firing

let time_q g what t = function
  | Fixed q -> q
  | Sym v ->
    unsupported "%s of %s is symbolic (%s); use the symbolic analysis" what
      (Net.trans_name g.net t) (Var.name v)

let enabling_q g t = time_q g "enabling time" t g.specs.(t).enabling
let firing_q g t = time_q g "firing time" t g.specs.(t).firing

let frequency_q g t =
  match g.specs.(t).frequency with
  | Freq q -> q
  | Freq_sym v ->
    unsupported "frequency of %s is symbolic (%s); use the symbolic analysis"
      (Net.trans_name g.net t) (Var.name v)

let frequency_poly g t =
  match g.specs.(t).frequency with
  | Freq q -> Poly.const q
  | Freq_sym v -> Poly.var v

let is_zero_frequency g t =
  match g.specs.(t).frequency with Freq q -> Q.is_zero q | Freq_sym _ -> false

let is_concrete g =
  Array.for_all
    (fun s ->
      (match s.enabling with Fixed _ -> true | Sym _ -> false)
      && (match s.firing with Fixed _ -> true | Sym _ -> false)
      && match s.frequency with Freq _ -> true | Freq_sym _ -> false)
    g.specs

let conflict_set_of g t = g.cs_of.(t)
let conflict_sets g = Array.map Fun.id g.css

let time_vars g =
  let acc = ref [] in
  Array.iter
    (fun s ->
      (match s.enabling with Sym v -> acc := v :: !acc | Fixed _ -> ());
      match s.firing with Sym v -> acc := v :: !acc | Fixed _ -> ())
    g.specs;
  List.rev !acc

let bind_times g bindings =
  let lookup name = List.assoc_opt name bindings in
  let bind_time = function
    | Fixed q -> Fixed q
    | Sym v -> (match lookup (Var.name v) with Some q -> Fixed q | None -> Sym v)
  in
  let bind_freq = function
    | Freq q -> Freq q
    | Freq_sym v -> (match lookup (Var.name v) with Some q -> Freq q | None -> Freq_sym v)
  in
  let specs =
    Array.map
      (fun s -> { enabling = bind_time s.enabling; firing = bind_time s.firing; frequency = bind_freq s.frequency })
      g.specs
  in
  let g' = { g with specs } in
  (* When fully concrete, the binding must be a model of the constraints. *)
  if is_concrete g' then begin
    let env v =
      match lookup (Var.name v) with
      | Some q -> q
      | None -> unsupported "bind_times: no value given for %s" (Var.name v)
    in
    if not (Constraints.satisfies env g.constraints) then
      unsupported "bind_times: the binding violates the declared timing constraints"
  end;
  g'

let pp_time_spec fmt = function
  | Fixed q -> Q.pp_decimal fmt q
  | Sym v -> Var.pp fmt v

let pp fmt g =
  Format.fprintf fmt "@[<v>timed net %s@," (Net.name g.net);
  Array.iteri
    (fun t s ->
      Format.fprintf fmt "  %-12s E=%a F=%a f=%s (cs %d)@," (Net.trans_name g.net t)
        pp_time_spec s.enabling pp_time_spec s.firing
        (match s.frequency with
         | Freq q -> Format.asprintf "%a" (Q.pp_decimal ~digits:6) q
         | Freq_sym v -> Var.name v)
        g.cs_of.(t))
    g.specs;
  let ncs = Array.length g.css in
  Format.fprintf fmt "  %d conflict set(s)" ncs;
  Format.fprintf fmt "@]"
