(** [tpan serve] — a long-running analysis service over {!Tpan.Query}.

    A deliberately minimal HTTP/1.1 front end (raw [Unix] sockets, no
    web framework in the toolchain). Each POST body decodes into one
    {!Tpan.Query.t}, answered by the same {!Tpan.Query.run} the CLI
    calls, so a query gets the same bytes through either:

    - [POST /analyze] — full concrete analysis report
    - [POST /eval] — evaluate the cached closed-form throughput at a
      rational point (the million-user fast path: after the first
      request for a net, no symbolic build happens again)
    - [POST /sweep] — parameter sweep, batched onto the worker pool
      (the request's [jobs], capped at
      {!Tpan_par.Pool.recommended_jobs}): a builtin with parameters
      rebuilds its net per point, any other net evaluates its closed
      forms; a grid of more than 10,000 points answers [400] before
      any point is generated
    - [GET /metrics] — the {!Tpan_obs.Metrics} registry as OpenMetrics
      (includes [cache.*] hit/miss/eviction counters and [serve.*])
    - [GET /healthz] — liveness
    - [GET /statusz] — live introspection: uptime, build version,
      per-artifact-kind cache hit ratios, the checkpoint heartbeats of
      live domains, GC stats,
      and the in-flight requests with their age and trace id
    - [GET /tracez] — latency-bucketed ring buffers of recent request
      span trees ({!Tpan_obs.Tracez}), so the slow tail always has
      recent examples on display

    [/statusz] and [/tracez] answer JSON by default and a minimal HTML
    page with [?format=html].

    {b Telemetry.} Every request is counted into per-endpoint RED
    families — [serve.endpoint.requests] and [serve.endpoint.errors]
    (typed: [http]/[app]/[timeout]/[overload]/[internal]) counters, and
    a [serve.request_duration_s] histogram whose OpenMetrics buckets
    each carry an exemplar trace id — tracked in flight and recorded in
    [/tracez]. Endpoint labels come from the route table (unknown
    paths, and requests rejected while framing, count as ["other"]), so
    cardinality is bounded. The [/statusz] request totals are sums over
    these series. Metric cells are safe from any domain, so the
    connection domains bump them without a lock of their own.

    Each request is recorded on disk once: with [ledger_dir] set, one
    run-ledger row (subcommand ["serve:<endpoint>"], so
    [tpan runs --stats] reports per-endpoint latency percentiles and
    exit codes) whose [request] object holds the HTTP facts — method,
    path, status, body and response sizes, net hash and deadline budget
    consumed (see {!Tpan_obs.Ledger}). The row is built from what the
    handler already holds and takes no cache lock; per-artifact cache
    counts are [/statusz]'s and [/metrics]'. A request that exceeds
    [slow_ms] also snapshots a flight-recorder dump scoped to its trace
    id.

    Every request runs under a fresh {!Tpan_obs.Context} (trace id in
    every response envelope; the configured deadline as the request's
    cancellation budget — a deadline crossing aborts the pipeline
    cooperatively and answers [504] with exit-code 6 semantics).
    Responses are schema-2 envelopes: [schema], [kind], [trace_id],
    [net_hash], [exit_code], then the payload.

    {b Connections.} HTTP/1.1 keep-alive with pipelining: each
    connection decodes requests with {!Http.decode_request} in a loop
    from a persistent buffer (bytes of request N+1 arriving with
    request N are served without another socket read), honours
    [Connection: close]/[keep-alive] (1.0 defaults to close, 1.1 to
    keep-alive), and is bounded by [max_requests_per_conn] and an
    [idle_timeout] carried on a {!Tpan_obs.Cancel} deadline token. A
    request stalled past that budget, head and body together, answers
    [408] and closes; the codec's refusals (a malformed or over-64-KiB
    head, a bad [Content-Length], [413] above 8 MiB, [501 chunked])
    close after answering, while an application error — a [400] for a
    request whose body was read whole included — answers and keeps
    the connection; a vanished peer (EOF/EPIPE/ECONNRESET) is a
    logged, counted ([serve.client_aborts]), non-fatal abort.

    {b Accepting.} One accept loop, on the domain that called {!run},
    watches every listener. Each accepted connection is served on a
    domain of its own (up to [max_conns]; beyond that, inline with a
    forced close after one request), so a parked keep-alive client
    never starves the accept loop. Shutdown (SIGTERM/SIGINT or
    {!shutdown}) wakes every blocking select through a self-pipe
    immediately — no polling tick — and drains live connections
    before closing the sockets. Accept-path failures (EMFILE under fd
    exhaustion and kin) are logged and retried after a short back-off,
    never fatal.

    {b Load shedding.} With [max_inflight] set, POST endpoints admit
    at most that many concurrent analyses, queue up to twice as many,
    and answer [503 + Retry-After] beyond; introspection endpoints
    never queue. *)

type config = {
  host : string;  (** IP to bind, e.g. ["127.0.0.1"] *)
  port : int option;  (** TCP port ([Some 0] picks an ephemeral one) *)
  socket_path : string option;  (** optional Unix-domain socket *)
  deadline : float option;  (** per-request budget, seconds *)
  max_states : int option;  (** default state budget for analyses *)
  slow_ms : float option;
      (** slow-request threshold in milliseconds; requests at or above
          it are flagged in [/tracez] and flight-captured *)
  flight_path : string option;
      (** where slow-request dump frames are appended *)
  ledger_dir : string option;
      (** when set, append one run-ledger row per request there — the
          request's only persisted record *)
  max_requests_per_conn : int;
      (** keep-alive budget per connection; [<= 0] means unlimited *)
  idle_timeout : float;
      (** seconds a connection may sit idle between requests, and the
          budget for reading one whole request, head and body *)
  max_inflight : int option;
      (** admission limit for concurrent POST analyses; [None] admits
          everything *)
  max_conns : int;
      (** concurrent-connection budget: each accepted connection is
          served on its own domain up to this many; beyond it a
          connection is served inline by the accept loop, capped to
          one request with a forced [Connection: close] *)
  warm : string list;
      (** builtin models to pre-build before announcing ready *)
}

val default_config : config
(** [127.0.0.1:8080], no Unix socket, no deadline;
    no slow threshold, no ledger rows (so nothing is written per
    request; [tpan serve] turns them on by default);
    32 concurrent connections, 1000 requests per connection,
    30s idle timeout, no admission limit, no warm-up. *)

type response = Http.response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;  (** extra headers, e.g. Retry-After *)
}

val handle : config -> meth:string -> target:string -> body:string -> response
(** The pure request handler the listener dispatches to, exposed so
    tests can drive the full request path (context minting, artifact
    cache, envelopes, status mapping, admission, telemetry) without
    sockets. *)

val run : ?ready:(int option -> unit) -> config -> unit
(** Bind, warm the caches ([config.warm]), announce via [ready] (the
    actually-bound TCP port — useful with [port = Some 0]), then serve
    until SIGTERM/SIGINT/{!shutdown}, finishing in-flight requests
    before closing the sockets. *)

val shutdown : unit -> unit
(** Ask a running server to stop, from any domain: sets the stop flag
    and wakes every blocking wait through the self-pipe. The signal
    handlers call exactly this. *)
