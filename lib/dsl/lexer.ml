type token =
  | IDENT of string
  | NUMBER of string
  | KW_NET
  | KW_PLACE
  | KW_TRANS
  | KW_INIT
  | KW_IN
  | KW_OUT
  | KW_ENABLE
  | KW_FIRE
  | KW_FREQ
  | KW_CONSTRAINT
  | KW_SYM
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | COLON
  | STAR
  | SLASH
  | PLUS
  | MINUS
  | GT
  | GE
  | LT
  | LE
  | EQUAL
  | EOF

type pos = { line : int; col : int }

type lexeme = { tok : token; pos : pos }

exception Error of pos * string

let keyword_of = function
  | "net" -> Some KW_NET
  | "place" -> Some KW_PLACE
  | "trans" -> Some KW_TRANS
  | "init" -> Some KW_INIT
  | "in" -> Some KW_IN
  | "out" -> Some KW_OUT
  | "enable" -> Some KW_ENABLE
  | "fire" -> Some KW_FIRE
  | "freq" -> Some KW_FREQ
  | "constraint" -> Some KW_CONSTRAINT
  | "sym" -> Some KW_SYM
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i = { line = !line; col = i - !bol + 1 } in
  let out = ref [] in
  let emit tok p = out := { tok; pos = p } :: !out in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let p = pos !i in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      match keyword_of word with
      | Some kw -> emit kw p
      | None -> emit (IDENT word) p
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' then begin
        incr i;
        if !i >= n || not (is_digit src.[!i]) then raise (Error (p, "malformed number"));
        while !i < n && is_digit src.[!i] do incr i done
      end;
      emit (NUMBER (String.sub src start (!i - start))) p
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | ">=" -> emit GE p; i := !i + 2
      | "<=" -> emit LE p; i := !i + 2
      | _ ->
        (match c with
         | '{' -> emit LBRACE p
         | '}' -> emit RBRACE p
         | '(' -> emit LPAREN p
         | ')' -> emit RPAREN p
         | ',' -> emit COMMA p
         | ';' -> emit SEMI p
         | ':' -> emit COLON p
         | '*' -> emit STAR p
         | '/' -> emit SLASH p
         | '+' -> emit PLUS p
         | '-' -> emit MINUS p
         | '>' -> emit GT p
         | '<' -> emit LT p
         | '=' -> emit EQUAL p
         | _ -> raise (Error (p, Printf.sprintf "illegal character %C" c)));
        incr i
    end
  done;
  emit EOF (pos !i);
  List.rev !out

let describe = function
  | IDENT s -> "identifier " ^ Tpan_core.Error.quote s
  | NUMBER s -> Printf.sprintf "number %s" s
  | KW_NET -> "'net'"
  | KW_PLACE -> "'place'"
  | KW_TRANS -> "'trans'"
  | KW_INIT -> "'init'"
  | KW_IN -> "'in'"
  | KW_OUT -> "'out'"
  | KW_ENABLE -> "'enable'"
  | KW_FIRE -> "'fire'"
  | KW_FREQ -> "'freq'"
  | KW_CONSTRAINT -> "'constraint'"
  | KW_SYM -> "'sym'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | COLON -> "':'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | GT -> "'>'"
  | GE -> "'>='"
  | LT -> "'<'"
  | LE -> "'<='"
  | EQUAL -> "'='"
  | EOF -> "end of input"
