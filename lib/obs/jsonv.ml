type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Raw of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let rec emit buf ~indent ~level v =
  let nl k =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * k) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | Raw s -> Buffer.add_string buf s
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        emit buf ~indent ~level:(level + 1) x)
      xs;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf (if indent then "\": " else "\":");
        emit buf ~indent ~level:(level + 1) x)
      fields;
    nl level;
    Buffer.add_char buf '}'

let to_buffer buf v = emit buf ~indent:false ~level:0 v

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_string_hum v =
  let buf = Buffer.create 256 in
  emit buf ~indent:true ~level:0 v;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

exception Parse_fail of string

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some code -> code
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      let c = peek () in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           let code = hex4 () in
           if code >= 0xD800 && code <= 0xDBFF then begin
             (* high surrogate: pair it with the following \uDC00-\uDFFF *)
             if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo >= 0xDC00 && lo <= 0xDFFF then
                 add_utf8 b (0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00))
               else fail "unpaired surrogate"
             end
             else fail "unpaired surrogate"
           end
           else if code >= 0xDC00 && code <= 0xDFFF then fail "unpaired surrogate"
           else add_utf8 b code
         | _ -> fail "bad escape");
        loop ()
      (* RFC 8259 §7: control characters appear in strings only escaped,
         as [escape] writes them; a raw one is a corrupt line, not text *)
      | '\000' .. '\031' -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    let fraction = ref false in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' -> true
          | '.' | 'e' | 'E' | '+' | '-' ->
            fraction := true;
            true
          | _ -> false)
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if not !fraction then
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number")
    else
      match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elements (v :: acc)
          | ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (elements [])
      end
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail msg -> Error msg

(* ---------------- accessors ---------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Raw r -> float_of_string_opt r
  | _ -> None

(* [int_of_float] on a value outside [min_int, max_int] is undefined
   behaviour, so integral floats must be range-checked first. [min_int]
   (-2^62) is exactly representable; [max_int] (2^62 - 1) is not, and the
   nearest float at that magnitude is 2^62 = -.(float min_int), which
   already overflows — hence the asymmetric bound. *)
let min_int_f = float_of_int min_int

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= min_int_f && f < -.min_int_f ->
    Some (int_of_float f)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
