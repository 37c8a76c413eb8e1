(* The HTTP/1.1 codec without sockets: every refusal the server can
   answer while framing, the keep-alive rule, and the properties the
   connection loop leans on — a request split across two reads decodes
   as it does whole, arbitrary bytes never raise, and a response decodes
   back to what was encoded. *)

module Http = Tpan_serve.Http

let buffer_of s =
  let b = Buffer.create (String.length s) in
  Buffer.add_string b s;
  b

let decode s = Http.decode_request (buffer_of s)

let show = function
  | Http.Complete (_, used) -> Printf.sprintf "Complete (_, %d)" used
  | Http.Incomplete { from; need } -> Printf.sprintf "Incomplete { from = %d; need = %d }" from need
  | Http.Malformed (status, msg) -> Printf.sprintf "Malformed (%d, %S)" status msg

let refused what status msg s =
  match decode s with
  | Http.Malformed (st, m) ->
    Alcotest.(check int) (what ^ ": status") status st;
    Alcotest.(check string) (what ^ ": message") msg m
  | d -> Alcotest.failf "%s: expected a %d refusal, got %s" what status (show d)

let head ?(line = "POST /eval HTTP/1.1") headers =
  line ^ "\r\n" ^ String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers) ^ "\r\n"

(* ----- one case per refusal ----- *)

let test_bad_request_line () =
  refused "malformed request line" 400 "malformed request line" "GARBAGE\r\n\r\n";
  refused "two words" 400 "malformed request line" "GET /healthz\r\n\r\n";
  refused "empty head" 400 "malformed request line" "\r\n\r\n"

let test_head_too_large () =
  let filler = "X-Filler: " ^ String.make (Http.max_head_bytes + 10) 'a' in
  refused "a head over 64 KiB with no blank line" 400 "request head too large"
    ("GET / HTTP/1.1\r\n" ^ filler);
  refused "and with one" 400 "request head too large"
    ("GET / HTTP/1.1\r\n" ^ filler ^ "\r\n\r\n");
  (* short of the cap, the decoder just asks for more *)
  match decode ("GET / HTTP/1.1\r\n" ^ String.make 1000 'a') with
  | Http.Incomplete _ -> ()
  | d -> Alcotest.failf "a short unfinished head: %s" (show d)

let test_chunked () =
  refused "chunked" 501 "Transfer-Encoding unsupported (send Content-Length)"
    (head [ ("Transfer-Encoding", "chunked") ]);
  match decode (head [ ("Transfer-Encoding", " Identity"); ("Content-Length", "0") ]) with
  | Http.Complete _ -> ()
  | d -> Alcotest.failf "identity is no transfer coding: %s" (show d)

let test_body_too_large () =
  (* from the head alone: no body byte has arrived *)
  refused "Content-Length over 8 MiB" 413 "request body too large"
    (head [ ("Content-Length", string_of_int (Http.max_body_bytes + 1)) ]);
  let whole_head = head [ ("Content-Length", string_of_int Http.max_body_bytes) ] in
  match decode (whole_head ^ "{}") with
  | Http.Incomplete { from; need } ->
    Alcotest.(check int) "exactly 8 MiB is admitted, resuming at the head"
      (String.length whole_head - 4) from;
    Alcotest.(check int) "and the next decode waits for the whole body"
      (String.length whole_head + Http.max_body_bytes) need
  | d -> Alcotest.failf "exactly 8 MiB is admitted: %s" (show d)

let test_smuggling_lengths () =
  List.iter
    (fun lengths ->
      let what = "Content-Length: " ^ String.concat ", " lengths in
      let msg =
        if List.length lengths > 1 then "conflicting Content-Length headers"
        else "bad Content-Length"
      in
      refused what 400 msg (head (List.map (fun v -> ("Content-Length", v)) lengths) ^ "hello"))
    [ [ "0x5" ]; [ "0_5" ]; [ "+5" ]; [ "0o7" ]; [ "0b11" ]; [ "5"; "0" ] ];
  refused "a bad repeat" 400 "bad Content-Length"
    (head [ ("Content-Length", "5"); ("Content-Length", "5"); ("Content-Length", "") ]);
  match decode (head [ ("Content-Length", "5"); ("content-length", "05") ] ^ "hello") with
  | Http.Complete (r, _) -> Alcotest.(check string) "agreeing repeats frame the body" "hello" r.body
  | d -> Alcotest.failf "agreeing repeats: %s" (show d)

let test_keep_alive () =
  let keeps ?(line = "GET / HTTP/1.1") headers =
    match decode (head ~line headers) with
    | Http.Complete (r, _) -> Http.keep_alive r
    | d -> Alcotest.failf "keep-alive case: %s" (show d)
  in
  Alcotest.(check bool) "1.1 persists" true (keeps []);
  Alcotest.(check bool) "1.0 closes" false (keeps ~line:"GET / HTTP/1.0" []);
  Alcotest.(check bool) "close wins on 1.1" false (keeps [ ("Connection", "Close") ]);
  Alcotest.(check bool) "keep-alive wins on 1.0" true
    (keeps ~line:"GET / HTTP/1.0" [ ("Connection", "keep-alive") ])

(* ----- the split property ----- *)

type sent = {
  s_meth : string;
  s_target : string;
  s_headers : (string * string) list;
  s_body : string;
}

let gen_sent =
  let open QCheck2.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let body =
    oneof
      [
        string_size ~gen:printable (int_range 0 40);
        map
          (fun (a, b) -> a ^ "\r\n\r\n" ^ b)
          (pair (string_size (int_range 0 12)) (string_size (int_range 0 12)));
      ]
  in
  let value = string_size ~gen:(char_range 'a' 'z') (int_range 0 10) in
  map
    (fun (s_meth, target, s_headers, s_body) ->
      { s_meth; s_target = "/" ^ target; s_headers; s_body })
    (quad
       (oneofl [ "GET"; "POST"; "PUT"; "DELETE" ])
       word
       (list_size (int_range 0 3) (pair word value))
       body)

let wire r =
  head ~line:(Printf.sprintf "%s %s HTTP/1.1" r.s_meth r.s_target)
    (("Content-Length", string_of_int (String.length r.s_body))
    :: List.map (fun (k, v) -> ("x-" ^ k, v)) r.s_headers)
  ^ r.s_body

(* What the connection loop does: decode once the buffer holds the
   [need] bytes the last [Incomplete] asked for, passing its [from] back;
   drop what a request used and start over. Stops with the state to
   resume from when the buffer holds less than asked. *)
let drain buf (from, need) =
  let rec go acc from need =
    if Buffer.length buf < need then (List.rev acc, (from, need))
    else
      match Http.decode_request ~from buf with
      | Http.Complete (r, used) ->
        let rest = Buffer.sub buf used (Buffer.length buf - used) in
        Buffer.clear buf;
        Buffer.add_string buf rest;
        go ((r, used) :: acc) 0 0
      | Http.Incomplete { from; need } ->
        if need <= Buffer.length buf then Alcotest.failf "Incomplete asks for no new byte";
        go acc from need
      | Http.Malformed (status, msg) -> Alcotest.failf "refused %d %s" status msg
  in
  go [] from need

let prop_split =
  QCheck2.Test.make ~name:"pipelined requests split anywhere decode as whole" ~count:150
    QCheck2.Gen.(list_size (int_range 1 4) gen_sent)
    (fun sent ->
      let bytes = String.concat "" (List.map wire sent) in
      let whole, _ = drain (buffer_of bytes) (0, 0) in
      List.length whole = List.length sent
      && List.for_all2
           (fun s ((r : Http.request), used) ->
             r.meth = s.s_meth && r.target = s.s_target && r.body = s.s_body
             && used = String.length (wire s))
           sent whole
      && List.for_all
           (fun k ->
             let buf = buffer_of (String.sub bytes 0 k) in
             let first, state = drain buf (0, 0) in
             Buffer.add_substring buf bytes k (String.length bytes - k);
             let rest, _ = drain buf state in
             first @ rest = whole && Buffer.length buf = 0)
           (List.init (String.length bytes + 1) Fun.id))

(* ----- arbitrary bytes and the response round trip ----- *)

let gen_bytes =
  let open QCheck2.Gen in
  let near_http = oneofl [ 'G'; 'E'; 'T'; ' '; '/'; ':'; '\r'; '\n'; '0'; '5'; 'H'; 'x'; '-' ] in
  pair (string_size ~gen:(oneof [ char; near_http ]) (int_range 0 200)) (int_range 0 210)

let prop_never_raises =
  QCheck2.Test.make ~name:"arbitrary bytes never raise" ~count:1000 gen_bytes (fun (s, from) ->
      let _ = Http.decode_request ~from (buffer_of s) in
      let _ = Http.decode_response ~from (buffer_of s) in
      let length_line = "GET / HTTP/1.1\r\nContent-Length: " ^ s ^ "\r\n\r\n" in
      let _ = Http.decode_request (buffer_of length_line) in
      true)

let prop_response_round_trip =
  let open QCheck2.Gen in
  let token = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  QCheck2.Test.make ~name:"decode_response inverts encode_response" ~count:300
    (quad
       (oneofl [ 200; 400; 404; 405; 408; 413; 422; 500; 501; 503; 504; 299 ])
       (string_size (int_range 0 300))
       (list_size (int_range 0 2) (pair token token))
       (opt (int_range 1 60)))
    (fun (status, body, headers, keep_alive) ->
      let r = { Http.status; content_type = "application/json"; body; headers } in
      let wire = Http.encode_response ~keep_alive r in
      Http.decode_response (buffer_of wire) = Http.Complete ((status, body), String.length wire))

let test_response_refusals () =
  let refused_response what s =
    match Http.decode_response (buffer_of s) with
    | Http.Malformed (502, _) -> ()
    | d -> Alcotest.failf "%s: %s" what (show d)
  in
  refused_response "no Content-Length" "HTTP/1.1 200 OK\r\n\r\nbody";
  refused_response "no status" "HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  refused_response "a status that is no number" "HTTP/1.1 OK fine\r\nContent-Length: 0\r\n\r\n"

let suite =
  ( "http",
    [
      Alcotest.test_case "malformed request line and empty head: 400" `Quick test_bad_request_line;
      Alcotest.test_case "head over 64 KiB: 400" `Quick test_head_too_large;
      Alcotest.test_case "chunked framing: 501" `Quick test_chunked;
      Alcotest.test_case "Content-Length over 8 MiB: 413 from the head" `Quick test_body_too_large;
      Alcotest.test_case "smuggling Content-Length forms: 400" `Quick test_smuggling_lengths;
      Alcotest.test_case "keep-alive by version and Connection" `Quick test_keep_alive;
      Alcotest.test_case "malformed responses: 502" `Quick test_response_refusals;
      QCheck_alcotest.to_alcotest prop_split;
      QCheck_alcotest.to_alcotest prop_never_raises;
      QCheck_alcotest.to_alcotest prop_response_round_trip;
    ] )
