(** A store-and-forward transmission line: K hops, each holding at most one
    packet, packets injected as fast as the line accepts them.

    Purely deterministic, but genuinely {e concurrent}: several hops
    forward packets simultaneously, so the timed reachability graph carries
    multiple active firing times at once — the strongest exercise of the
    Figure-3 minimum computation. In steady state the line paces at the
    worst {e adjacent-hop} sum (a slot cannot be refilled while its
    downstream move is in progress — the marked-graph cycle-time bound):
    throughput = 1 / {!bottleneck}, asserted against both the rate solve
    (the cycle is one renewal node of the decision graph) and the
    simulator. *)

module Q = Tpan_mathkit.Q

type params = {
  hop_delays : Q.t list;  (** forwarding delay per hop, head = first hop *)
  inject_delay : Q.t;  (** source packet preparation time *)
}

val default_params : params
(** 4 hops: 10, 25, 10, 15 ms; inject 5 ms — hop 2 is the bottleneck. *)

val net : hops:int -> Tpan_petri.Net.t

val concrete : params -> Tpan_core.Tpn.t

val bottleneck : params -> Q.t
(** Maximum over consecutive pairs of [inject :: hop_delays] of their sum —
    the pacing delay of the line. *)

val t_deliver : string
(** The final hop's transition (completions = packets delivered). *)
