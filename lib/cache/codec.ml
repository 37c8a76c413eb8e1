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

let poly_of_json doc =
  let exception Bad in
  let mono_of = function
    | J.List [ J.Str name; J.Int e ] when e >= 1 ->
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

(* ----- concrete timed reachability graphs -----

   The net itself rides along as its .tpn source (the canonical
   serialization — [Printer.to_string] / [Parser.parse_string] round-trip
   exactly, which the canonical-hash tests prove), so a decoded graph is
   self-contained: its [tpn] field is rebuilt by parsing, and the state
   arrays index the reparsed net's places and transitions. The parser
   assigns indices in declaration order, which the printer preserves; the
   decoder still cross-checks the recorded place/transition name lists
   against the reparsed net and rejects the entry on any mismatch (a
   stale cache line from an older printer falls back to a rebuild, never
   to a silently misindexed graph). *)

module Sem = Tpan_core.Semantics
module Net = Tpan_petri.Net

let kind_chr = function Sem.Decision -> 'D' | Sem.Advance -> 'A' | Sem.Terminal -> 'T'

let kind_of_chr = function
  | 'D' -> Some Sem.Decision
  | 'A' -> Some Sem.Advance
  | 'T' -> Some Sem.Terminal
  | _ -> None

let trg_to_json (g : (Q.t, Q.t) Sem.graph) =
  let net = Tpan_core.Tpn.net g.Sem.tpn in
  let strs xs = J.List (List.map (fun s -> J.Str s) xs) in
  let ints xs = J.List (List.map (fun i -> J.Int i) xs) in
  let qarr a = J.List (Array.to_list (Array.map q_to_json a)) in
  let state (s : Q.t Sem.state) =
    J.Obj
      [
        ("m", ints (Array.to_list s.Sem.marking));
        ("ret", qarr s.Sem.ret);
        ("rft", qarr s.Sem.rft);
      ]
  in
  let edge (e : (Q.t, Q.t) Sem.edge) =
    J.Obj
      [
        ("src", J.Int e.Sem.src);
        ("dst", J.Int e.Sem.dst);
        ("delay", q_to_json e.Sem.delay);
        ("prob", q_to_json e.Sem.prob);
        ("fired", ints e.Sem.fired);
        ("completed", ints e.Sem.completed);
        ("just", strs e.Sem.justification);
      ]
  in
  J.Obj
    [
      ("net", J.Str (Tpan_dsl.Printer.to_string g.Sem.tpn));
      ("places", strs (List.map (Net.place_name net) (Net.places net)));
      ( "transitions",
        strs (List.map (Net.trans_name net) (Net.transitions net)) );
      ("kinds", J.Str (String.init (Array.length g.Sem.kinds)
                         (fun i -> kind_chr g.Sem.kinds.(i))));
      ("states", J.List (List.map state (Array.to_list g.Sem.states)));
      ( "out",
        J.List
          (Array.to_list (Array.map (fun es -> J.List (List.map edge es)) g.Sem.out)) );
    ]

let trg_of_json doc =
  let exception Bad in
  let need = function Some x -> x | None -> raise Bad in
  let str = function J.Str s -> s | _ -> raise Bad in
  let int = function J.Int n -> n | _ -> raise Bad in
  let list = function J.List xs -> xs | _ -> raise Bad in
  let q j = need (q_of_json j) in
  let qarr j = Array.of_list (List.map q (list j)) in
  try
    let tpn = Tpan_dsl.Parser.parse_string (str (need (J.member "net" doc))) in
    let net = Tpan_core.Tpn.net tpn in
    let names field live =
      if List.map str (list (need (J.member field doc))) <> live then raise Bad
    in
    names "places" (List.map (Net.place_name net) (Net.places net));
    names "transitions" (List.map (Net.trans_name net) (Net.transitions net));
    let state j =
      {
        Sem.marking =
          Array.of_list (List.map int (list (need (J.member "m" j))));
        ret = qarr (need (J.member "ret" j));
        rft = qarr (need (J.member "rft" j));
      }
    in
    let edge j =
      {
        Sem.src = int (need (J.member "src" j));
        dst = int (need (J.member "dst" j));
        delay = q (need (J.member "delay" j));
        prob = q (need (J.member "prob" j));
        fired = List.map int (list (need (J.member "fired" j)));
        completed = List.map int (list (need (J.member "completed" j)));
        justification = List.map str (list (need (J.member "just" j)));
      }
    in
    let kinds_s = str (need (J.member "kinds" doc)) in
    let kinds =
      Array.init (String.length kinds_s) (fun i ->
          need (kind_of_chr kinds_s.[i]))
    in
    let states =
      Array.of_list (List.map state (list (need (J.member "states" doc))))
    in
    let out =
      Array.of_list
        (List.map (fun es -> List.map edge (list es))
           (list (need (J.member "out" doc))))
    in
    if
      Array.length states <> Array.length kinds
      || Array.length states <> Array.length out
      || Array.length states = 0
    then raise Bad;
    (* per-state array shapes must match the reparsed net, or a
       corrupted-but-well-formed line would decode to [Some] and blow
       up deep inside analysis code instead of falling back to a
       rebuild *)
    let n_places = List.length (Net.places net) in
    let n_trans = List.length (Net.transitions net) in
    Array.iter
      (fun (s : Q.t Sem.state) ->
        if
          Array.length s.Sem.marking <> n_places
          || Array.length s.Sem.ret <> n_trans
          || Array.length s.Sem.rft <> n_trans
        then raise Bad)
      states;
    Array.iter
      (fun es ->
        List.iter
          (fun e ->
            if e.Sem.src < 0 || e.Sem.src >= Array.length states
               || e.Sem.dst < 0 || e.Sem.dst >= Array.length states
            then raise Bad)
          es)
      out;
    Some { Sem.tpn; states; out; kinds }
  with _ -> None
