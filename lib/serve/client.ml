(* A minimal blocking HTTP GET over raw Unix sockets, framed by [Http] —
   just enough for `tpan top --attach` to pull /statusz and /tracez from
   a running server without an HTTP library in the toolchain. *)

type url = { host : string; port : int; path : string }

let parse_url s =
  let strip prefix s =
    if String.length s >= String.length prefix
       && String.sub s 0 (String.length prefix) = prefix
    then Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  match strip "http://" s with
  | None -> Error (Printf.sprintf "unsupported URL %S (expected http://host:port/path)" s)
  | Some rest ->
    let authority, path =
      match String.index_opt rest '/' with
      | Some i ->
        (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "/")
    in
    let host, port =
      match String.rindex_opt authority ':' with
      | Some i -> (
        let h = String.sub authority 0 i in
        let p = String.sub authority (i + 1) (String.length authority - i - 1) in
        match int_of_string_opt p with
        | Some p when p > 0 && p < 65536 -> (h, Some p)
        | _ -> (authority, None))
      | None -> (authority, Some 80)
    in
    (match port with
    | None -> Error (Printf.sprintf "bad port in URL %S" s)
    | Some port ->
      let host = if host = "" then "127.0.0.1" else host in
      Ok { host; port; path })

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> Ok addr
    | _ | (exception Not_found) -> Error (Printf.sprintf "cannot resolve host %S" host))

(* Reads until one whole response is buffered, framed by its
   [Content-Length]. *)
let read_response ?(limit = 64 * 1024 * 1024) fd =
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 8192 in
  let rec go from =
    match Http.decode_response ~from buf with
    | Http.Complete (r, _) -> Ok r
    | Http.Malformed (_, msg) -> Error msg
    | Http.Incomplete { from; _ } ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Error "truncated HTTP response"
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        if Buffer.length buf > limit then Error "response too large" else go from
      end
  in
  go 0

let get ?(timeout = 5.0) url =
  match parse_url url with
  | Error e -> Error e
  | Ok { host; port; path } -> (
    match resolve host with
    | Error e -> Error e
    | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
            Unix.connect fd (Unix.ADDR_INET (addr, port));
            let req =
              Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n"
                path host port
            in
            let b = Bytes.of_string req in
            let rec send off =
              if off < Bytes.length b then
                send (off + Unix.write fd b off (Bytes.length b - off))
            in
            send 0;
            read_response fd
          with Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e)))))
