(** Fork-join worker pool over OCaml 5 domains.

    The pool's one guarantee is {e determinism}: for any jobs count,
    {!map} returns exactly [List.map f xs] — results land in the slot of
    their input regardless of which domain computed them or in what
    order. Combined with the exact rational arithmetic used throughout
    the analysis pipeline, a parallel sweep is byte-identical to a
    sequential one.

    Design notes:

    - Fork-join, spawn-per-call: each [map] spawns up to [jobs - 1]
      domains and joins them before returning. A spawn plus join of an
      empty task took 75–146 µs at the median and 0.2–3.4 ms at p90
      (wall clock around [Domain.join (Domain.spawn f)], three rounds of
      2,000 on a 2-vCPU Linux host): small against the multi-millisecond
      tasks this pool exists for, not against a sub-millisecond one such
      as a 32-point sweep grid. The absence of a persistent pool means no
      shutdown protocol, no idle domains inside library clients, and no
      interference with other users of the domain budget.
    - Work stealing via a single [Atomic] index over the input array;
      the calling domain participates, so [jobs = 1] equals plain
      [List.map] even in cost.
    - Workers update {!Tpan_obs.Metrics} cells and emit
      {!Tpan_obs.Log} records directly: both are safe from any domain,
      so metric totals are scheduling-independent and log lines never
      interleave mid-line. Worker [k] traces in lane [k + 1]
      ({!Tpan_obs.Trace.set_lane}), so spans closed inside workers land
      in the merged Chrome trace as parallel tracks, wrapped in a
      per-worker [pool.worker] span. Each worker also records the GC
      words it allocated (OCaml 5 keeps allocation counters per domain)
      into the [par.pool.worker_minor_words] /
      [par.pool.worker_major_words] histograms, so GC pressure inside
      the pool is visible in [tpan profile] and the OpenMetrics export.
    - Nested calls run sequentially: a task that itself calls [map]
      (e.g. replicated simulation inside a parallel sweep point) gets
      the sequential fast path instead of a domain explosion.
    - The spawning domain's {!Tpan_obs.Context} (trace id, deadline
      token) is re-installed inside every worker, so spans and log
      records from all lanes carry the owning request's ids and a
      [--deadline] crossing aborts every lane at its next
      {!Tpan_obs.Cancel.checkpoint}. *)

val recommended_jobs : unit -> int
(** Domains worth using on this machine: [TPAN_JOBS] when set to a
    positive integer, else [Domain.recommended_domain_count ()], capped
    at 64. Always at least 1. *)

val set_default_jobs : int -> unit
(** Set the jobs count used when [?jobs] is omitted ([max 1 n]). The CLI
    wires [-j] to this. Defaults to 1 — parallelism is opt-in. *)

val default_jobs : unit -> int

val in_worker : unit -> bool
(** True while executing inside a pool worker (or inside a task run on
    the calling domain during a parallel region). Used by library code
    to pick a sequential algorithm rather than nesting pools. *)

module Scratch : sig
  (** Per-domain reusable scratch state.

      A hot task (e.g. one simulation replication) needs working arrays
      it would otherwise reallocate on every call. A [Scratch.t] hands
      each domain its own lazily-created instance via [Domain.DLS]:
      workers never share or lock it, and repeated calls on one domain
      reuse the same buffers. Only sound for state that is dead again
      when the using function returns (no reentrancy across [get]). *)

  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** Register a scratch slot; [init] runs once per domain, on first
      {!get}. Call at module initialization, not per use. *)

  val get : 'a t -> 'a
  (** This domain's instance. *)
end

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by up to [jobs]
    domains. An exception raised by any [f x] is re-raised on the
    calling domain after all workers have joined (the first by input
    order wins, deterministically). *)

type error = { index : int; message : string; exn : exn }
(** A task failure: input position, [Printexc.to_string] render, and the
    original exception. *)

val try_map : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** Like {!map} but captures each task's failure in its slot instead of
    re-raising, so one bad sweep point doesn't lose the rest of the
    grid. Result order matches input order. *)
