(* The client side of HTTP/1.1 keep-alive, just what the load
   generator needs: render a request, cut complete responses off a
   connection's byte stream, a blocking connection for set-up and
   scrapes, and the closed loop of the timed phases. *)

type response = { status : int; close : bool; body : string }

let request ~meth ~path ~body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then Some i
    else go (i + 1)
  in
  go 0

(* One complete response off the front of [buf], or [None] while bytes
   are still missing. The server always sends Content-Length. *)
let take buf =
  let s = Buffer.contents buf in
  match find_head_end s with
  | None -> None
  | Some i ->
    let lines = List.map String.trim (String.split_on_char '\n' (String.sub s 0 i)) in
    let status =
      match lines with
      | l :: _ when String.length l >= 12 -> int_of_string (String.sub l 9 3)
      | _ -> failwith ("malformed status line in " ^ String.escaped (String.sub s 0 i))
    in
    let header name =
      let prefix = name ^ ":" in
      List.find_map
        (fun l ->
          let low = String.lowercase_ascii l in
          if String.starts_with ~prefix low then
            Some (String.trim (String.sub low (String.length prefix) (String.length low - String.length prefix)))
          else None)
        lines
    in
    let length =
      match Option.bind (header "content-length") int_of_string_opt with
      | Some n -> n
      | None -> failwith "response without Content-Length"
    in
    let total = i + 4 + length in
    if String.length s < total then None
    else begin
      Buffer.clear buf;
      Buffer.add_substring buf s total (String.length s - total);
      Some
        {
          status;
          close = header "connection" = Some "close";
          body = String.sub s (i + 4) length;
        }
    end

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let chunk = Bytes.create 65536

(* Append what the socket has; [false] on end of stream. *)
let fill fd buf =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes buf chunk 0 n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

(* ----- one blocking connection: set-up requests and /metrics scrapes ----- *)

module Sync = struct
  type t = { port : int; mutable fd : Unix.file_descr option; buf : Buffer.t }

  let create port = { port; fd = None; buf = Buffer.create 4096 }

  let close t =
    Option.iter close_quietly t.fd;
    t.fd <- None;
    Buffer.clear t.buf

  (* A slow first request (a cold symbolic build) is allowed two
     minutes; anything longer is a hang. *)
  let call t ~meth ~path ~body =
    let fd =
      match t.fd with
      | Some fd -> fd
      | None ->
        let fd = connect t.port in
        t.fd <- Some fd;
        fd
    in
    write_all fd (request ~meth ~path ~body);
    let rec await () =
      match take t.buf with
      | Some r ->
        if r.close then close t;
        r
      | None -> (
        match Unix.select [ fd ] [] [] 120. with
        | [], _, _ -> failwith (Printf.sprintf "%s %s: no response within 120 s" meth path)
        | _ ->
          if not (fill fd t.buf) then begin
            close t;
            failwith (Printf.sprintf "%s %s: connection closed mid-response" meth path)
          end;
          await ())
    in
    await ()
end

(* ----- the closed loop ----- *)

type conn = {
  mutable fd : Unix.file_descr option;
  rbuf : Buffer.t;
  mutable req : int;  (** index of the request in flight, or -1 *)
  mutable sent_at : float;
}

type outcome = {
  completed : int;  (** responses received *)
  reconnects : int;  (** connections the server closed with [Connection: close] *)
  elapsed : float;  (** first send to last response, seconds *)
}

(* Drive [conns] keep-alive connections, each sending its next request
   only after the previous reply (a closed loop). [next ()] yields the
   next (index, raw request) or [None] when the phase is over; every
   finished request is reported to [on_result] with its latency, from
   the send to the last byte of the response. A response carrying
   [Connection: close] (the server's per-connection request budget)
   closes the socket; the connection reconnects before its next send. *)
let closed_loop ~port ~conns ~next ~on_result =
  let cs = Array.init conns (fun _ -> { fd = None; rbuf = Buffer.create 8192; req = -1; sent_at = 0. }) in
  let completed = ref 0 and reconnects = ref 0 in
  let first = ref infinity and last = ref 0. in
  let drop c =
    Option.iter close_quietly c.fd;
    c.fd <- None;
    Buffer.clear c.rbuf
  in
  let finish c result =
    let t = Proc.now () in
    last := t;
    on_result c.req result (t -. c.sent_at)
  in
  let rec send c =
    match next () with
    | None -> c.req <- -1
    | Some (i, raw) -> (
      c.req <- i;
      match
        let fd =
          match c.fd with
          | Some fd -> fd
          | None ->
            let fd = connect port in
            c.fd <- Some fd;
            fd
        in
        c.sent_at <- Proc.now ();
        if c.sent_at < !first then first := c.sent_at;
        write_all fd raw
      with
      | () -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED), _, _) ->
        finish c (Error "send failed: connection refused or reset");
        drop c;
        send c)
  in
  Array.iter send cs;
  let live () = Array.exists (fun c -> c.req >= 0) cs in
  while live () do
    let fds = Array.fold_left (fun acc c -> match c.fd with Some fd when c.req >= 0 -> fd :: acc | _ -> acc) [] cs in
    let ready =
      match Unix.select fds [] [] 120. with
      | [], _, _ -> failwith "no response from the server within 120 s"
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    Array.iter
      (fun c ->
        match c.fd with
        | Some fd when c.req >= 0 && List.mem fd ready ->
          if not (fill fd c.rbuf) then begin
            finish c (Error "connection closed with a request in flight");
            drop c;
            send c
          end
          else (
            match take c.rbuf with
            | None -> ()
            | Some r ->
              incr completed;
              finish c (Ok r);
              if r.close then begin
                drop c;
                incr reconnects
              end;
              send c)
        | _ -> ())
      cs
  done;
  Array.iter drop cs;
  {
    completed = !completed;
    reconnects = !reconnects;
    elapsed = (if !completed = 0 then 0. else !last -. !first);
  }
