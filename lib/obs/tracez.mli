(** Latency-bucketed ring buffers of recent request span trees — the
    data behind a server's [GET /tracez] page, à la gRPC tracez.

    The serving layer records one {!entry} per finished request. Entries
    are grouped by method name and land in the ring chosen by their
    latency (error responses additionally land in a dedicated error
    ring), so the page always retains a few recent examples of {e every}
    latency class: the slow tail is never flushed out by a burst of fast
    requests. Memory is bounded by
    [methods × (buckets + 1 + 1) × per_bucket] entries.

    Thread-safe; {!record} takes a mutex once per request. *)

type entry = {
  trace_id : string;  (** owning request's {!Context.trace_id} *)
  name : string;  (** method label, e.g. ["POST /eval"] *)
  status : int;  (** HTTP status (or an exit code for non-HTTP users) *)
  start : float;  (** Unix epoch seconds *)
  dur : float;  (** seconds *)
  slow : bool;  (** crossed the server's slow-request threshold *)
  spans : Trace.event list;
      (** the request's completed span tree, from {!Trace.take_events} *)
}

val configure : ?bounds:float array -> ?per_bucket:int -> unit -> unit
(** Replace bucket bounds and/or per-ring capacity (default 16) —
    drops all recorded entries. *)

val record : entry -> unit

type bucket_view = {
  label : string;  (** e.g. ["<1ms"], ["10ms-100ms"], [">=1s"], ["error"] *)
  seen : int;  (** entries ever recorded in this ring, not just retained *)
  entries : entry list;  (** retained entries, newest first *)
}

val snapshot : unit -> (string * bucket_view list * bucket_view) list
(** Per method name (sorted): latency buckets in ascending-bound order,
    then the error ring. *)

val to_json : unit -> Jsonv.t
(** The whole page:
    [{"schema":1,"buckets":[…],"methods":[{"name","buckets":[{"bucket",
    "seen","entries":[{"trace_id","status","start","duration_s","slow",
    "spans":[…]}]}],"errors":{…}}]}]. *)

val clear : unit -> unit
