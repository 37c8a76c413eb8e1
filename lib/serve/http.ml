(* HTTP/1.1 framing and nothing else: no sockets, no clock. The server's
   connection loop, [Client] and the SERVE-KEEPALIVE figure all frame
   through here. *)

type request = {
  meth : string;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
}

type 'a decoded =
  | Complete of 'a * int
  | Incomplete of { from : int; need : int }
  | Malformed of int * string

let max_head_bytes = 64 * 1024
let max_body_bytes = 8 * 1024 * 1024

(* The first blank line at or after [from]. When there is none, the
   search may resume three bytes before the end: a terminator can
   straddle the boundary of the bytes seen so far. *)
let find_terminator buf ~from =
  let n = Buffer.length buf in
  let rec go i =
    if i + 3 >= n then Error (max 0 (n - 3))
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Ok i
    else go (i + 1)
  in
  go (max 0 from)

(* One message off the front of [buf]: [parse] reads its head into the
   body's length and what to build from the body, or a refusal. Once a
   head is whole, [Incomplete] resumes at that head, never past it: the
   body may hold a blank line of its own. It also asks for the whole
   body before the next decode, so a body trickling in is not met by a
   parse of its head per read. *)
let frame ~from buf parse =
  match find_terminator buf ~from with
  | Error from -> Incomplete { from; need = Buffer.length buf + 1 }
  | Ok i -> (
    match parse (Buffer.sub buf 0 i) with
    | Error (status, msg) -> Malformed (status, msg)
    | Ok (length, make) ->
      if Buffer.length buf - (i + 4) < length then Incomplete { from = i; need = i + 4 + length }
      else Complete (make (Buffer.sub buf (i + 4) length), i + 4 + length))

(* A head's first line and its headers, names lowercased; lines without
   a colon are skipped. *)
let split_head raw =
  let header line =
    match String.index_opt line ':' with
    | Some i ->
      Some
        ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> None
  in
  match List.map String.trim (String.split_on_char '\n' raw) with
  | first :: rest -> (first, List.filter_map header rest)
  | [] -> ("", [])

(* Only [1*DIGIT] (RFC 9110 §8.6): [int_of_string] alone would also take
   [0x5], [0_5] or [+5], and a proxy reading those differently would
   split the stream elsewhere. Repeats must agree (RFC 9112 §6.3). *)
let content_length headers =
  let parse v =
    if String.for_all (fun c -> c >= '0' && c <= '9') v then int_of_string_opt v else None
  in
  match
    List.filter_map (fun (k, v) -> if k = "content-length" then Some (parse v) else None) headers
  with
  | [] -> Ok None
  | ns when List.mem None ns -> Error "bad Content-Length"
  | n :: rest ->
    if List.for_all (( = ) n) rest then Ok n else Error "conflicting Content-Length headers"

(* Everything a request head decides alone, the body's cap included, so
   an oversized body is refused before any of it arrives. Chunked
   framing is refused: misread as an unframed body, it would
   desynchronize the stream. *)
let parse_request_head raw =
  if String.length raw > max_head_bytes then Error (400, "request head too large")
  else
    let line, headers = split_head raw in
    match String.split_on_char ' ' line with
    | [ meth; target; version ] -> (
      match List.assoc_opt "transfer-encoding" headers with
      | Some v when String.lowercase_ascii (String.trim v) <> "identity" ->
        Error (501, "Transfer-Encoding unsupported (send Content-Length)")
      | _ -> (
        match content_length headers with
        | Error msg -> Error (400, msg)
        | Ok (Some n) when n > max_body_bytes -> Error (413, "request body too large")
        | Ok length ->
          Ok
            ( Option.value length ~default:0,
              fun body -> { meth; target; version; headers; body } )))
    | _ -> Error (400, "malformed request line")

let decode_request ?(from = 0) buf =
  match frame ~from buf parse_request_head with
  | Incomplete { from; _ } when from > max_head_bytes -> Malformed (400, "request head too large")
  | d -> d

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* HTTP/1.1 defaults to persistent; 1.0 (and anything unrecognized)
   to close. An explicit [Connection] token wins either way. *)
let keep_alive (r : request) =
  match Option.map String.lowercase_ascii (List.assoc_opt "connection" r.headers) with
  | Some v when has_substring v "close" -> false
  | Some v when has_substring v "keep-alive" -> true
  | _ -> r.version = "HTTP/1.1"

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let encode_response ~keep_alive (r : response) =
  let extra =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  let conn_header =
    match keep_alive with
    | Some secs -> Printf.sprintf "Connection: keep-alive\r\nKeep-Alive: timeout=%d\r\n" secs
    | None -> "Connection: close\r\n"
  in
  Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s%s\r\n%s"
    r.status (status_text r.status) r.content_type (String.length r.body) extra conn_header
    r.body

let parse_response_head raw =
  let line, headers = split_head raw in
  match String.split_on_char ' ' line with
  | _ :: code :: _ -> (
    match (int_of_string_opt code, content_length headers) with
    | None, _ -> Error (502, "malformed HTTP status " ^ code)
    | Some _, Error msg -> Error (502, msg)
    | Some _, Ok None -> Error (502, "HTTP response lacks Content-Length")
    | Some status, Ok (Some length) -> Ok (length, fun body -> (status, body)))
  | _ -> Error (502, "malformed HTTP status line")

let decode_response ?(from = 0) buf = frame ~from buf parse_response_head
