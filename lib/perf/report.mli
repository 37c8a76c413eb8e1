(** One-shot analysis reports: everything the toolchain knows about a net,
    as a human-readable text document. Drives the [tpan report] command and
    doubles as an integration exercise of the whole API. *)

val concrete :
  ?max_states:int -> ?events:string list -> Format.formatter -> Tpan_core.Tpn.t -> unit
(** Structure (places, transitions, conflict sets), structural analysis
    (P/T-invariants, minimal siphons, Commoner check), timed reachability
    statistics, decision-graph analysis with per-transition completion
    rates, place utilizations, and first-passage latencies for the given
    [events] (default: none). A net without a steady state (one that
    terminates, can halt, or has no unique recurrent class) reports why
    instead.
    @raise Tpan_core.Tpn.Unsupported on symbolic nets *)

val symbolic :
  ?max_states:int -> ?events:string list -> Format.formatter -> Tpan_core.Tpn.t -> unit
(** Same skeleton for symbolic nets: constraint system, symbolic graph,
    constraint-usage audit, symbolic rates and throughput expressions,
    symbolic latencies. *)
