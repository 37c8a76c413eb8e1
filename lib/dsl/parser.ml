module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module C = Tpan_symbolic.Constraints
module Tpn = Tpan_core.Tpn
module L = Lexer

exception Parse_error of L.pos * string

(* ----- AST ----- *)

type time_ast = T_num of string | T_sym_e of string | T_sym_f of string | T_self

type freq_ast = F_num of string | F_sym of string | F_self

type atom = A_const of string | A_enabling of string | A_firing of string | A_param of string

type expr_term = { coeff : string option; atom : atom }

type expr = (bool (* negative *) * expr_term) list

type rel = R_lt | R_le | R_eq | R_ge | R_gt

type field =
  | In_bag of (int * string) list
  | Out_bag of (int * string) list
  | Enable of time_ast
  | Fire of time_ast
  | Freq of freq_ast

type decl =
  | D_place of string * int
  | D_trans of string * field list
  | D_constraint of string option * expr * rel * expr

type ast = { net_name : string; decls : decl list }

(* ----- parser state ----- *)

type state = { mutable toks : L.lexeme list }

let peek st = match st.toks with [] -> assert false | l :: _ -> l

let advance st = match st.toks with [] -> assert false | _ :: rest -> st.toks <- rest

let fail_at (l : L.lexeme) fmt =
  Format.kasprintf (fun s -> raise (Parse_error (l.L.pos, s))) fmt

let expect st tok =
  let l = peek st in
  if l.L.tok = tok then advance st
  else fail_at l "expected %s but found %s" (L.describe tok) (L.describe l.L.tok)

let expect_ident st what =
  let l = peek st in
  match l.L.tok with
  | L.IDENT s -> advance st; s
  | t -> fail_at l "expected %s (an identifier) but found %s" what (L.describe t)

let expect_number st what =
  let l = peek st in
  match l.L.tok with
  | L.NUMBER s -> advance st; s
  | t -> fail_at l "expected %s (a number) but found %s" what (L.describe t)

let accept st tok = if (peek st).L.tok = tok then (advance st; true) else false

(* a rational spelling: NUMBER, optionally followed by '/' NUMBER *)
let extend_fraction st n =
  if (peek st).L.tok = L.SLASH then begin
    advance st;
    let d = expect_number st "denominator" in
    n ^ "/" ^ d
  end
  else n

(* ----- grammar ----- *)

(* bag := (INT '*')? IDENT (',' ...)* *)
let parse_bag st =
  let item () =
    let l = peek st in
    match l.L.tok with
    | L.NUMBER n ->
      advance st;
      expect st L.STAR;
      let w =
        try int_of_string n with Failure _ -> fail_at l "multiplicity must be an integer"
      in
      let p = expect_ident st "place name" in
      (w, p)
    | L.IDENT p -> advance st; (1, p)
    | t -> fail_at l "expected a place name but found %s" (L.describe t)
  in
  let first = item () in
  let rec more acc = if accept st L.COMMA then more (item () :: acc) else List.rev acc in
  more [ first ]

(* symref := IDENT '(' IDENT ')' with IDENT in {E,F,f} *)
let parse_time st =
  let l = peek st in
  match l.L.tok with
  | L.NUMBER n -> advance st; T_num (extend_fraction st n)
  | L.KW_SYM -> advance st; T_self
  | L.IDENT ("E" as k) | L.IDENT ("F" as k) ->
    advance st;
    expect st L.LPAREN;
    let name = expect_ident st "symbol label" in
    expect st L.RPAREN;
    if k = "E" then T_sym_e name else T_sym_f name
  | t -> fail_at l "expected a time value (number, E(..), F(..) or 'sym') but found %s" (L.describe t)

let parse_freq st =
  let l = peek st in
  match l.L.tok with
  | L.NUMBER n -> advance st; F_num (extend_fraction st n)
  | L.KW_SYM -> advance st; F_self
  | L.IDENT "f" ->
    advance st;
    expect st L.LPAREN;
    let name = expect_ident st "symbol label" in
    expect st L.RPAREN;
    F_sym name
  | t -> fail_at l "expected a frequency (number, f(..) or 'sym') but found %s" (L.describe t)

let parse_atom st =
  let l = peek st in
  match l.L.tok with
  | L.NUMBER n -> advance st; A_const (extend_fraction st n)
  | L.IDENT ("E" | "F" | "f") when (match st.toks with _ :: { L.tok = L.LPAREN; _ } :: _ -> true | _ -> false) ->
    let k = match l.L.tok with L.IDENT k -> k | _ -> assert false in
    advance st;
    expect st L.LPAREN;
    let name = expect_ident st "symbol label" in
    expect st L.RPAREN;
    (match k with
     | "E" -> A_enabling name
     | "F" -> A_firing name
     | _ -> fail_at l "frequency symbols cannot appear in timing constraints")
  | L.IDENT p -> advance st; A_param p
  | t -> fail_at l "expected a term but found %s" (L.describe t)

(* term := NUMBER '*' atom | atom  (the bare-NUMBER case is A_const) *)
let parse_term st =
  let l = peek st in
  match l.L.tok with
  | L.NUMBER n ->
    advance st;
    let n = extend_fraction st n in
    if accept st L.STAR then
      let a = parse_atom st in
      { coeff = Some n; atom = a }
    else { coeff = None; atom = A_const n }
  | _ -> { coeff = None; atom = parse_atom st }

let parse_expr st =
  let first_neg = accept st L.MINUS in
  let first = parse_term st in
  let rec more acc =
    let l = peek st in
    match l.L.tok with
    | L.PLUS -> advance st; more ((false, parse_term st) :: acc)
    | L.MINUS -> advance st; more ((true, parse_term st) :: acc)
    | _ -> List.rev acc
  in
  more [ (first_neg, first) ]

let parse_rel st =
  let l = peek st in
  match l.L.tok with
  | L.LT -> advance st; R_lt
  | L.LE -> advance st; R_le
  | L.EQUAL -> advance st; R_eq
  | L.GE -> advance st; R_ge
  | L.GT -> advance st; R_gt
  | t -> fail_at l "expected a relation (<, <=, =, >=, >) but found %s" (L.describe t)

let parse_trans_body st =
  expect st L.LBRACE;
  let rec fields acc =
    ignore (accept st L.SEMI);
    let l = peek st in
    match l.L.tok with
    | L.RBRACE -> advance st; List.rev acc
    | L.KW_IN -> advance st; fields (In_bag (parse_bag st) :: acc)
    | L.KW_OUT -> advance st; fields (Out_bag (parse_bag st) :: acc)
    | L.KW_ENABLE -> advance st; fields (Enable (parse_time st) :: acc)
    | L.KW_FIRE -> advance st; fields (Fire (parse_time st) :: acc)
    | L.KW_FREQ -> advance st; fields (Freq (parse_freq st) :: acc)
    | t -> fail_at l "expected a transition field (in/out/enable/fire/freq) but found %s" (L.describe t)
  in
  fields []

let parse_ast st =
  expect st L.KW_NET;
  let net_name = expect_ident st "net name" in
  let rec decls acc =
    let l = peek st in
    match l.L.tok with
    | L.EOF -> List.rev acc
    | L.KW_PLACE ->
      advance st;
      let name = expect_ident st "place name" in
      let init = if accept st L.KW_INIT then int_of_string (expect_number st "initial marking") else 0 in
      decls (D_place (name, init) :: acc)
    | L.KW_TRANS ->
      advance st;
      let name = expect_ident st "transition name" in
      let fields = parse_trans_body st in
      decls (D_trans (name, fields) :: acc)
    | L.KW_CONSTRAINT ->
      advance st;
      (* optional 'label :' *)
      let label =
        match st.toks with
        | { L.tok = L.IDENT lbl; _ } :: { L.tok = L.COLON; _ } :: _ ->
          advance st; advance st; Some lbl
        | _ -> None
      in
      let lhs = parse_expr st in
      let rel = parse_rel st in
      let rhs = parse_expr st in
      decls (D_constraint (label, lhs, rel, rhs) :: acc)
    | t -> fail_at l "expected 'place', 'trans' or 'constraint' but found %s" (L.describe t)
  in
  let decls = decls [] in
  { net_name; decls }

(* ----- elaboration ----- *)

let q_of_spelling pos s =
  try Q.of_decimal_string s
  with Invalid_argument m -> raise (Parse_error (pos, m))

let elaborate ast =
  let b = Net.builder ast.net_name in
  let place_idx = Hashtbl.create 16 in
  (* pass 1: places *)
  List.iter
    (function
      | D_place (name, init) ->
        let p = Net.add_place b ~init name in
        Hashtbl.add place_idx name p
      | D_trans _ | D_constraint _ -> ())
    ast.decls;
  let lookup_place name =
    match Hashtbl.find_opt place_idx name with
    | Some p -> p
    | None -> raise (Parse_error ({ L.line = 0; col = 0 }, "unknown place " ^ Tpan_core.Error.quote name))
  in
  (* pass 2: transitions *)
  let specs = ref [] in
  List.iter
    (function
      | D_trans (name, fields) ->
        let inputs = ref [] and outputs = ref [] in
        let enabling = ref (Tpn.Fixed Q.zero) in
        let firing = ref (Tpn.Fixed Q.zero) in
        let freq = ref (Tpn.Freq Q.one) in
        let time_of = function
          | T_num n -> Tpn.Fixed (q_of_spelling { L.line = 0; col = 0 } n)
          | T_sym_e l -> Tpn.Sym (Var.enabling l)
          | T_sym_f l -> Tpn.Sym (Var.firing l)
          | T_self -> Tpn.Sym (Var.firing name)
        in
        List.iter
          (function
            | In_bag bag -> inputs := !inputs @ List.map (fun (w, p) -> (lookup_place p, w)) bag
            | Out_bag bag -> outputs := !outputs @ List.map (fun (w, p) -> (lookup_place p, w)) bag
            | Enable (T_self) -> enabling := Tpn.Sym (Var.enabling name)
            | Enable t -> enabling := time_of t
            | Fire t -> firing := time_of t
            | Freq (F_num n) -> freq := Tpn.Freq (q_of_spelling { L.line = 0; col = 0 } n)
            | Freq (F_sym l) -> freq := Tpn.Freq_sym (Var.frequency l)
            | Freq F_self -> freq := Tpn.Freq_sym (Var.frequency name))
          fields;
        ignore (Net.add_transition b ~name ~inputs:!inputs ~outputs:!outputs);
        specs := (name, Tpn.spec ~enabling:!enabling ~firing:!firing ~frequency:!freq ()) :: !specs
      | D_place _ | D_constraint _ -> ())
    ast.decls;
  let net = Net.build b in
  (* pass 3: constraints *)
  let lin_of_expr expr =
    List.fold_left
      (fun acc (neg, { coeff; atom }) ->
        let k =
          match coeff with
          | Some n -> q_of_spelling { L.line = 0; col = 0 } n
          | None -> Q.one
        in
        let k = if neg then Q.neg k else k in
        let term =
          match atom with
          | A_const n -> Lin.const (Q.mul k (q_of_spelling { L.line = 0; col = 0 } n))
          | A_enabling l -> Lin.scale k (Lin.var (Var.enabling l))
          | A_firing l -> Lin.scale k (Lin.var (Var.firing l))
          | A_param l -> Lin.scale k (Lin.var (Var.param l))
        in
        Lin.add acc term)
      Lin.zero expr
  in
  let constraints =
    List.fold_left
      (fun cs decl ->
        match decl with
        | D_constraint (label, lhs, rel, rhs) ->
          let rel =
            match rel with
            | R_lt -> `Lt
            | R_le -> `Le
            | R_eq -> `Eq
            | R_ge -> `Ge
            | R_gt -> `Gt
          in
          C.add ?label rel (lin_of_expr lhs) (lin_of_expr rhs) cs
        | D_place _ | D_trans _ -> cs)
      C.empty ast.decls
  in
  Tpn.make ~constraints net (List.rev !specs)

let parse_string src =
  try
    let st = { toks = L.tokenize src } in
    let ast = parse_ast st in
    elaborate ast
  with L.Error (pos, msg) -> raise (Parse_error (pos, msg))

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string src

let parse_result src =
  match parse_string src with
  | tpn -> Ok tpn
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "line %d, column %d: %s" pos.L.line pos.L.col msg)
  | exception Invalid_argument msg -> Error msg
  | exception Tpn.Unsupported msg -> Error msg
