(** HTTP/1.1 framing for [tpan serve] and its clients, with no sockets
    and no clock: buffered bytes become a request, "incomplete" or a
    typed refusal, and a response becomes bytes and back. The server's
    connection loop only reads, calls {!decode_request}, waits and
    writes; {!Client} and the SERVE-KEEPALIVE figure read responses
    with {!decode_response}. *)

type request = {
  meth : string;
  target : string;
  version : string;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;  (** extra headers, e.g. Retry-After *)
}

type 'a decoded =
  | Complete of 'a * int  (** the message and the bytes it used *)
  | Incomplete of { from : int; need : int }
      (** more bytes are needed: decode again once the buffer holds at
          least [need] bytes, passing [from] back. No byte of a head is
          searched twice, and a whole head is parsed again only once
          its body may be whole. *)
  | Malformed of int * string
      (** refused: the status to answer and why. A response decoder
          refuses with 502, as a relay would. *)

val max_head_bytes : int
(** 64 KiB: a request head (its bytes before the blank line) longer
    than this answers 400 [request head too large], however the bytes
    were split across reads. *)

val max_body_bytes : int
(** 8 MiB: a [Content-Length] above this answers 413 from the head
    alone, before any body byte arrives. *)

val decode_request : ?from:int -> Buffer.t -> request decoded
(** The request at the front of the buffer; the buffer is not changed.
    The caller drops the [Complete] byte count before decoding the next
    pipelined request from offset 0. Refusals: 400 for a malformed
    request line (an empty head included), an oversized head, a
    [Content-Length] that is not [1*DIGIT] or repeats that disagree;
    501 for any [Transfer-Encoding] but [identity]; 413 above
    {!max_body_bytes}. Never raises. *)

val keep_alive : request -> bool
(** HTTP/1.1 persists and 1.0 closes, unless a [Connection] header says
    [close] or [keep-alive]. *)

val encode_response : keep_alive:int option -> response -> string
(** Status line, [Content-Type], [Content-Length], the extra headers,
    then [Connection: keep-alive] with [Keep-Alive: timeout=N] for
    [Some N], or [Connection: close] for [None]; then the body. *)

val decode_response : ?from:int -> Buffer.t -> (int * string) decoded
(** A response's status and body, framed by its [Content-Length] (one
    is required). Never raises. *)
