(* The socket plane of [tpan serve]: keep-alive and pipelining framing,
   idle timeouts, torn, malformed and smuggling heads, per-connection
   request budgets and domains, admission control and concurrent /sweep
   requests. The server runs in a domain of this process (so the
   tests can read its metric counters directly); clients are plain
   [Unix] sockets speaking hand-rolled HTTP/1.1. *)

module Serve = Tpan_serve.Serve
module J = Tpan_obs.Jsonv

let base_config = { Serve.default_config with Serve.port = Some 0 }

(* ----- server lifecycle ----- *)

let with_server config f =
  let port : int option Atomic.t = Atomic.make None in
  let srv =
    Domain.spawn (fun () -> Serve.run ~ready:(fun p -> Atomic.set port p) config)
  in
  let finally () =
    Serve.shutdown ();
    Domain.join srv
  in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Atomic.get port with
    | Some p -> p
    | None ->
      if Unix.gettimeofday () > deadline then begin
        finally ();
        Alcotest.fail "server did not become ready"
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
  in
  let p = wait () in
  Fun.protect ~finally (fun () -> f p)

(* ----- a minimal HTTP/1.1 client ----- *)

type client = { fd : Unix.file_descr; cbuf : Buffer.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; cbuf = Buffer.create 4096 }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write c.fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let request ?(version = "HTTP/1.1") ?(headers = []) meth target body =
  let extra =
    String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers)
  in
  let clen =
    if body = "" && meth = "GET" then ""
    else Printf.sprintf "Content-Length: %d\r\n" (String.length body)
  in
  Printf.sprintf "%s %s %s\r\nHost: test\r\n%s%s\r\n%s" meth target version extra
    clen body

let fill ?(timeout = 10.) c =
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> `Timeout
  | _ -> (
    let chunk = Bytes.create 65536 in
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
      Buffer.add_subbytes c.cbuf chunk 0 n;
      `Filled
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again

let find_crlf2 s from =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go (max 0 from)

type resp = { status : int; headers : (string * string) list; body : string }

let header r name = List.assoc_opt (String.lowercase_ascii name) r.headers

(* One response off the client's buffered stream. [None] means the
   server closed cleanly before sending any byte of a next response —
   exactly what keep-alive expiry and [Connection: close] look like
   from this side. *)
let recv ?timeout c =
  let rec head () =
    let s = Buffer.contents c.cbuf in
    match find_crlf2 s 0 with
    | Some i -> Some (s, i)
    | None -> (
      match fill ?timeout c with
      | `Filled | `Again -> head ()
      | `Timeout -> Alcotest.fail "timed out waiting for a response head"
      | `Eof ->
        if Buffer.length c.cbuf = 0 then None
        else Alcotest.fail "connection closed inside a response head")
  in
  match head () with
  | None -> None
  | Some (s, i) ->
    let raw_head = String.sub s 0 i in
    let lines = String.split_on_char '\n' raw_head in
    let status_line, header_lines =
      match lines with [] -> Alcotest.fail "empty head" | l :: hs -> (l, hs)
    in
    let status =
      match String.split_on_char ' ' (String.trim status_line) with
      | _ :: code :: _ -> int_of_string code
      | _ -> Alcotest.failf "bad status line %S" status_line
    in
    let headers =
      List.filter_map
        (fun line ->
          match String.index_opt line ':' with
          | Some j ->
            Some
              ( String.lowercase_ascii (String.trim (String.sub line 0 j)),
                String.trim
                  (String.sub line (j + 1) (String.length line - j - 1)) )
          | None -> None)
        header_lines
    in
    let length =
      match List.assoc_opt "content-length" headers with
      | Some v -> int_of_string v
      | None -> Alcotest.fail "response lacks Content-Length"
    in
    let total = i + 4 + length in
    let rec body () =
      if Buffer.length c.cbuf >= total then begin
        let all = Buffer.contents c.cbuf in
        let b = String.sub all (i + 4) length in
        Buffer.clear c.cbuf;
        Buffer.add_substring c.cbuf all total (String.length all - total);
        b
      end
      else
        match fill ?timeout c with
        | `Filled | `Again -> body ()
        | `Timeout -> Alcotest.fail "timed out waiting for a response body"
        | `Eof -> Alcotest.fail "connection closed inside a response body"
    in
    Some { status; headers; body = body () }

let recv_exn ?timeout c what =
  match recv ?timeout c with
  | Some r -> r
  | None -> Alcotest.failf "%s: connection closed before a response" what

let body_member r k =
  match J.of_string r.body with
  | Ok doc -> J.member k doc
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e r.body

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let eval_body =
  {|{"model":"stopwait-sym","transition":"t7","point":{
      "E(t3)":"250","F(t1)":"1","F(t2)":"1","F(t3)":"1",
      "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
      "F(t8)":"106.7","F(t9)":"106.7",
      "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}

let sweep_body steps =
  Printf.sprintf
    {|{"model":"stopwait-sym","transitions":["t7"],
       "axes":["E(t3)=250..1000:%d"],
       "bindings":{"F(t1)":"1","F(t2)":"1","F(t3)":"1",
         "F(t4)":"106.7","F(t5)":"106.7","F(t6)":"13.5","F(t7)":"13.5",
         "F(t8)":"106.7","F(t9)":"106.7",
         "f(t4)":"0.05","f(t5)":"0.95","f(t8)":"0.95","f(t9)":"0.05"}}|}
    steps

(* ----- keep-alive framing ----- *)

let test_sequential_reuse () =
  with_server base_config (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          (* three different endpoints down one socket *)
          send c (request "GET" "/healthz" "");
          let r1 = recv_exn c "healthz" in
          Alcotest.(check int) "healthz 200" 200 r1.status;
          Alcotest.(check (option string))
            "healthz keeps the connection" (Some "keep-alive")
            (header r1 "connection");
          send c (request "POST" "/eval" eval_body);
          let r2 = recv_exn c "eval" in
          Alcotest.(check int) "eval 200" 200 r2.status;
          Alcotest.(check bool) "the paper's exact value" true
            (contains r2.body "1805/486672");
          send c (request "GET" "/statusz" "");
          let r3 = recv_exn c "statusz" in
          Alcotest.(check int) "statusz 200" 200 r3.status;
          (* garbage mid-stream: answered with 400, then the server
             refuses to resynchronize and closes *)
          let framing_errors () =
            Tpan_obs.Metrics.counter_value
              "serve.endpoint.errors{endpoint=\"other\",type=\"http\"}"
          in
          let before = framing_errors () in
          send c "GARBAGE\r\n\r\n";
          let r4 = recv_exn c "malformed" in
          Alcotest.(check int) "malformed head answers 400" 400 r4.status;
          (* counted before the answer is written *)
          Alcotest.(check int) "framing error counted as other/http" 1
            (framing_errors () - before);
          Alcotest.(check (option string))
            "a framing error closes the connection" (Some "close")
            (header r4 "connection");
          Alcotest.(check bool) "and the socket reaches EOF" true
            (recv c = None));
      (* a Content-Length that is not 1*DIGIT, or repeats that disagree,
         would frame the body differently from a proxy that reads it
         another way (request smuggling): answered 400, then closed
         before the five body bytes can be read as a request *)
      List.iter
        (fun lengths ->
          let what = "Content-Length: " ^ String.concat ", " lengths in
          let c = connect port in
          Fun.protect
            ~finally:(fun () -> close_client c)
            (fun () ->
              send c
                (request
                   ~headers:(List.map (fun v -> ("Content-Length", v)) lengths)
                   "GET" "/healthz" ""
                ^ "hello"
                ^ request "GET" "/healthz" "");
              Alcotest.(check int) (what ^ " answers 400") 400
                (recv_exn c what).status;
              Alcotest.(check bool) (what ^ " then EOF") true (recv c = None)))
        [ [ "0x5" ]; [ "0_5" ]; [ "+5" ]; [ "0o7" ]; [ "0b11" ]; [ "5"; "0" ] ])

(* An application error answers and keeps the connection: only framing
   failures, raised before the handler, close it (the malformed-head and
   smuggling cases above). *)
let test_app_error_keeps_connection () =
  with_server base_config (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          send c (request "POST" "/analyze" {|{"model":"stopwait-sym"}|});
          let r1 = recv_exn c "analyze of a symbolic builtin" in
          Alcotest.(check int) "analyze stopwait-sym answers 400" 400 r1.status;
          Alcotest.(check (option string))
            "that 400 keeps the connection" (Some "keep-alive")
            (header r1 "connection");
          send c (request "POST" "/eval" {|{"model": "stopwait-sym",|});
          let r2 = recv_exn c "malformed JSON body" in
          Alcotest.(check int) "a malformed JSON body answers 400" 400 r2.status;
          Alcotest.(check (option string))
            "so does a body read whole but malformed" (Some "keep-alive")
            (header r2 "connection");
          send c (request "GET" "/healthz" "");
          let r3 = recv_exn c "healthz after two 400s" in
          Alcotest.(check int) "the same connection answers next" 200 r3.status))

let test_http10_defaults_to_close () =
  with_server base_config (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          send c (request ~version:"HTTP/1.0" "GET" "/healthz" "");
          let r = recv_exn c "http/1.0" in
          Alcotest.(check int) "1.0 still answered" 200 r.status;
          Alcotest.(check (option string))
            "1.0 without Connection defaults to close" (Some "close")
            (header r "connection");
          Alcotest.(check bool) "EOF follows" true (recv c = None)))

let test_pipelined_in_order () =
  with_server base_config (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          (* all three requests in a single write; bytes of request N+1
             sit in the connection buffer while N is served *)
          send c
            (request "GET" "/healthz" ""
            ^ request "POST" "/eval" eval_body
            ^ request "GET" "/healthz" "");
          let r1 = recv_exn c "pipelined #1" in
          let r2 = recv_exn c "pipelined #2" in
          let r3 = recv_exn c "pipelined #3" in
          Alcotest.(check bool) "first answer is the healthz" true
            (r1.status = 200 && body_member r1 "status" = Some (J.Str "ok"));
          Alcotest.(check bool) "second answer is the eval" true
            (r2.status = 200 && body_member r2 "throughput" <> None);
          Alcotest.(check bool) "third answer is the healthz again" true
            (r3.status = 200 && body_member r3 "status" = Some (J.Str "ok"))))

let test_idle_timeout_closes () =
  with_server { base_config with Serve.idle_timeout = 0.3 } (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          send c (request "GET" "/healthz" "");
          let r = recv_exn c "healthz" in
          Alcotest.(check int) "first request fine" 200 r.status;
          (* then sit idle: the server must close without writing
             anything more (no 408 — between requests the client owes
             nothing) *)
          Alcotest.(check bool) "idle connection closed quietly" true
            (recv ~timeout:5. c = None)))

let test_torn_header_and_midstream_hangup () =
  with_server base_config (fun port ->
      (* a request trickling in byte by byte parses exactly like one
         arriving whole *)
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          String.iter
            (fun ch ->
              send c (String.make 1 ch);
              Unix.sleepf 0.001)
            (request "GET" "/healthz" "");
          let r = recv_exn c "torn" in
          Alcotest.(check int) "torn request answered" 200 r.status);
      (* a peer vanishing mid-head is a counted, non-fatal abort *)
      let before = Tpan_obs.Metrics.counter_value "serve.client_aborts" in
      let c2 = connect port in
      send c2 "GET /hea";
      close_client c2;
      let deadline = Unix.gettimeofday () +. 5. in
      let rec await () =
        if Tpan_obs.Metrics.counter_value "serve.client_aborts" > before then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "client abort never counted"
        else begin
          Unix.sleepf 0.01;
          await ()
        end
      in
      await ();
      (* and the accept loop is back accepting *)
      let c3 = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c3)
        (fun () ->
          send c3 (request "GET" "/healthz" "");
          Alcotest.(check int) "server survives the hangup" 200
            (recv_exn c3 "after hangup").status))

let test_max_requests_per_conn () =
  with_server { base_config with Serve.max_requests_per_conn = 3 } (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          let one = request "GET" "/healthz" "" in
          send c (one ^ one ^ one ^ one);
          let r1 = recv_exn c "#1" in
          let r2 = recv_exn c "#2" in
          let r3 = recv_exn c "#3" in
          Alcotest.(check (option string)) "#1 keeps" (Some "keep-alive")
            (header r1 "connection");
          Alcotest.(check (option string)) "#2 keeps" (Some "keep-alive")
            (header r2 "connection");
          Alcotest.(check (option string)) "#3 announces the close"
            (Some "close") (header r3 "connection");
          Alcotest.(check bool) "#4 is never answered" true (recv c = None)))

(* ----- the connection plane: no head-of-line blocking ----- *)

(* Served inline in the accept loop, a parked keep-alive client (any
   poller with an interval below the 30s idle timeout) would starve
   every other client; connections run on their own domains. *)
let test_parked_connection_does_not_starve () =
  with_server base_config (fun port ->
      let a = connect port in
      let b = connect port in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          send a (request "GET" "/healthz" "");
          Alcotest.(check int) "A served" 200 (recv_exn a "A").status;
          (* A now sits parked on its keep-alive connection, well inside
             the idle budget; B must still be answered promptly *)
          send b (request "GET" "/healthz" "");
          let r = recv_exn ~timeout:5. b "B while A is parked" in
          Alcotest.(check int) "B served while A is parked" 200 r.status;
          (* and A's connection is still usable afterwards *)
          send a (request "GET" "/healthz" "");
          Alcotest.(check int) "A again" 200 (recv_exn a "A#2").status))

(* Past the [max_conns] budget a connection is still answered — inline
   by the accept loop, one request, forced close — so the loop is
   pinned for at most one request, never a keep-alive session. *)
let test_conn_capacity_falls_back_to_close () =
  with_server { base_config with Serve.max_conns = 1 } (fun port ->
      let a = connect port in
      let b = connect port in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          send a (request "GET" "/healthz" "");
          Alcotest.(check (option string))
            "A keeps (below the budget)" (Some "keep-alive")
            (header (recv_exn a "A") "connection");
          send b (request "GET" "/healthz" "");
          let r = recv_exn ~timeout:5. b "B at capacity" in
          Alcotest.(check int) "B answered" 200 r.status;
          Alcotest.(check (option string))
            "B forced to close" (Some "close") (header r "connection");
          Alcotest.(check bool) "B reaches EOF" true (recv b = None)))

(* ----- admission control and concurrent /sweep requests -----

   Driven through [Serve.handle] on concurrent pool lanes: the gate and
   the artifact cache sit on the request path itself, so the socket
   layer adds nothing but noise here. *)

let test_overload_503_with_retry_after () =
  Tpan.Artifact.reset_caches ();
  (* derive the closed form once so every concurrent sweep below spends
     its time in grid evaluation, maximizing overlap at the gate *)
  let first = Serve.handle base_config ~meth:"POST" ~target:"/sweep"
      ~body:(sweep_body 10)
  in
  Alcotest.(check int) "priming sweep 200" 200 first.Serve.status;
  let config = { base_config with Serve.max_inflight = Some 1 } in
  let bodies = List.init 6 (fun i -> sweep_body (1500 + i)) in
  let responses =
    Tpan_par.Pool.map ~jobs:6
      (fun body -> Serve.handle config ~meth:"POST" ~target:"/sweep" ~body)
      bodies
  in
  let ok = List.filter (fun r -> r.Serve.status = 200) responses in
  let shed = List.filter (fun r -> r.Serve.status = 503) responses in
  Alcotest.(check int) "every request answered" 6
    (List.length ok + List.length shed);
  Alcotest.(check bool) "some sweeps computed" true (ok <> []);
  Alcotest.(check bool) "at least one was shed" true (shed <> []);
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "503 carries Retry-After" (Some "1")
        (List.assoc_opt "Retry-After" r.Serve.headers);
      Alcotest.(check bool) "overload envelope has exit code 1" true
        (match J.of_string r.Serve.body with
        | Ok doc -> J.member "exit_code" doc = Some (J.Int 1)
        | Error _ -> false))
    shed

(* Identical concurrent sweeps share one derivation of the closed form
   (the artifact cache builds each key exactly once) but answer for
   themselves: each response carries its own trace id, so the id a
   client holds names its own /tracez entry and ledger row. *)
let test_identical_sweeps () =
  Tpan.Artifact.reset_caches ();
  let builds () = Tpan_obs.Metrics.counter_value "cache.closed_form.misses" in
  let before = builds () in
  let body = sweep_body 400 in
  let responses =
    Tpan_par.Pool.map ~jobs:4
      (fun () -> Serve.handle base_config ~meth:"POST" ~target:"/sweep" ~body)
      [ (); (); (); () ]
  in
  List.iter
    (fun r -> Alcotest.(check int) "identical sweep 200" 200 r.Serve.status)
    responses;
  Alcotest.(check int) "the closed form is derived once" 1 (builds () - before);
  let trace_id r =
    match Result.map (J.member "trace_id") (J.of_string r.Serve.body) with
    | Ok (Some (J.Str t)) -> t
    | _ -> Alcotest.failf "sweep answer lacks a trace id: %s" r.Serve.body
  in
  let masked r =
    String.split_on_char '\n' r.Serve.body
    |> List.filter (fun l -> not (String.starts_with ~prefix:{|  "trace_id": |} l))
    |> String.concat "\n"
  in
  (match List.map masked responses with
  | first :: rest ->
    List.iter (Alcotest.(check string) "same payload, trace id aside" first) rest
  | [] -> ());
  let tids = List.map trace_id responses in
  Alcotest.(check int) "four distinct trace ids" 4
    (List.length (List.sort_uniq compare tids));
  let sweep_tids =
    List.concat_map
      (fun (name, buckets, errors) ->
        if name <> "POST /sweep" then []
        else
          List.concat_map
            (fun (b : Tpan_obs.Tracez.bucket_view) ->
              List.map (fun (e : Tpan_obs.Tracez.entry) -> e.trace_id) b.entries)
            (errors :: buckets))
      (Tpan_obs.Tracez.snapshot ())
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " is in /tracez under POST /sweep") true
        (List.mem t sweep_tids))
    tids

(* ----- the codec's refusals over a socket -----

   Each is answered once, with [Connection: close], and the socket then
   reaches EOF. Nothing is sent past what the server reads before it
   answers, so it closes with nothing unread. *)

let answered_then_eof port ~what ~status bytes =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close_client c)
    (fun () ->
      send c bytes;
      let r = recv_exn ~timeout:5. c what in
      Alcotest.(check int) what status r.status;
      Alcotest.(check (option string)) (what ^ " closes") (Some "close") (header r "connection");
      Alcotest.(check bool) (what ^ " then EOF") true (recv ~timeout:5. c = None);
      r)

let test_oversized_and_chunked_refused () =
  with_server base_config (fun port ->
      ignore
        (answered_then_eof port ~what:"Content-Length over 8 MiB answers 413" ~status:413
           "POST /eval HTTP/1.1\r\nHost: test\r\nContent-Length: 9000000\r\n\r\n");
      ignore
        (answered_then_eof port ~what:"chunked framing answers 501" ~status:501
           "POST /eval HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"))

(* One idle budget covers a whole request. A body that arrives after its
   head is answered; one that stalls mid-way answers 408. *)
let test_midbody_stall_408 () =
  with_server { base_config with Serve.idle_timeout = 0.3 } (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          (* the body's own blank line must not be read as a head *)
          let i = String.index eval_body ',' + 1 in
          let body =
            String.sub eval_body 0 i ^ "\r\n\r\n"
            ^ String.sub eval_body i (String.length eval_body - i)
          in
          let whole = request "POST" "/eval" body in
          let split = String.length whole - String.length body + 5 in
          send c (String.sub whole 0 split);
          Unix.sleepf 0.05;
          send c (String.sub whole split (String.length whole - split));
          let r = recv_exn ~timeout:5. c "late body" in
          Alcotest.(check int) "a body after its head is answered" 200 r.status;
          Alcotest.(check bool) "with the paper's exact value" true
            (contains r.body "1805/486672"));
      let r =
        answered_then_eof port ~what:"a mid-body stall answers 408" ~status:408
          "POST /eval HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\n{\"a\""
      in
      Alcotest.(check bool) "the 408 says what timed out" true
        (contains r.body "timed out reading request"))

let suite =
  ( "keepalive",
    [
      Alcotest.test_case "sequential reuse, then malformed closes" `Quick
        test_sequential_reuse;
      Alcotest.test_case "HTTP/1.0 defaults to close" `Quick
        test_http10_defaults_to_close;
      Alcotest.test_case "pipelined requests answered in order" `Quick
        test_pipelined_in_order;
      Alcotest.test_case "idle timeout closes quietly" `Quick
        test_idle_timeout_closes;
      Alcotest.test_case "torn header; mid-head hangup is non-fatal" `Quick
        test_torn_header_and_midstream_hangup;
      Alcotest.test_case "max-requests-per-conn budget" `Quick
        test_max_requests_per_conn;
      Alcotest.test_case "parked connection starves nobody" `Quick
        test_parked_connection_does_not_starve;
      Alcotest.test_case "connection budget falls back to close" `Quick
        test_conn_capacity_falls_back_to_close;
      Alcotest.test_case "identical sweeps fly once" `Quick test_identical_sweeps;
      Alcotest.test_case "overload answers 503 + Retry-After" `Quick
        test_overload_503_with_retry_after;
      Alcotest.test_case "an application 400 keeps the connection" `Quick
        test_app_error_keeps_connection;
      Alcotest.test_case "413 and 501 answer, then close" `Quick
        test_oversized_and_chunked_refused;
      Alcotest.test_case "a mid-body stall answers 408" `Quick test_midbody_stall_408;
    ] )
