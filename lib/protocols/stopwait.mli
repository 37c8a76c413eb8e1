(** The paper's running example (Figure 1): a stop-and-wait protocol with
    unnumbered messages and acknowledgements over a lossy medium.

    The sender transmits a packet and waits; a timeout recovers from lost
    packets or acknowledgements. The receiver acknowledges every packet
    immediately. Duplicates are assumed detectable by the receiver, so no
    sequence numbers are modelled (the paper's deliberately simple variant).

    Transitions (paper numbering):
    - [t1] prepare next message, [t2] send packet, [t3] timeout
      (enabling time = timeout period),
    - [t4] lose packet / [t5] deliver packet (conflict set, 5%/95%),
    - [t6] receive packet and emit ack, [t7] sender processes ack
      (conflict set with [t3]: the ack has priority over the timeout),
    - [t8] deliver ack / [t9] lose ack (conflict set, 95%/5%). *)

module Q = Tpan_mathkit.Q

type params = {
  timeout : Q.t;  (** E(t3), ms; paper: 1000 *)
  send_time : Q.t;  (** F(t1)=F(t2)=F(t3), ms; paper: 1 *)
  transit_time : Q.t;  (** F(t4)=F(t5)=F(t8)=F(t9), ms; paper: 106.7 *)
  process_time : Q.t;  (** F(t6)=F(t7), ms; paper: 13.5 *)
  packet_loss : Q.t;  (** relative frequency of t4; paper: 0.05 *)
  ack_loss : Q.t;  (** relative frequency of t9; paper: 0.05 *)
}

val paper_params : params
(** Figure 1b values: timeout 1000 ms, transmission 1 ms, medium transit
    106.7 ms, processing 13.5 ms, 5% packet and ack loss. *)

val net : unit -> Tpan_petri.Net.t
(** The untimed structure (8 places, 9 transitions). *)

val concrete : params -> Tpan_core.Tpn.t
(** Fully concrete timed net. *)

val parallel : channels:int -> params -> Tpan_core.Tpn.t
(** [channels] independent copies of the protocol running concurrently
    (transitions suffixed [_c0], [_c1], …) — a per-flow window of
    outstanding messages. The aggregate throughput is exactly [channels]
    times the single-channel value, which the tests assert against the
    interleaved-graph analysis.

    Caveat: the interleaved graph's size is governed by the lattice of
    relative phase offsets between channels, i.e. by the {e granularity} of
    the delays — the paper's 0.1 ms-grain values make the joint space
    astronomically large, while small integer delays keep it in the
    hundreds. Use coarse-grained parameters for exact analysis and the
    simulator for fine-grained ones. *)

val symbolic : unit -> Tpan_core.Tpn.t
(** All times symbolic ([E(t3)], [F(t1)] … [F(t9)]) except the
    structurally-zero enabling times (the paper's constraint (2)), loss
    frequencies symbolic ([f(t4)], [f(t5)], [f(t8)], [f(t9)]); carries the
    paper's timing constraints (1), (3), (4). *)

val symbolic_constraints : Tpan_symbolic.Constraints.t
(** (1) [E(t3) > F(t5)+F(t6)+F(t8)]; (3) [F(t4) = F(t5)];
    (4) [F(t9) = F(t8)]. *)

(** Transition names, for use with measures: *)

val t_send : string  (** t2 *)

val t_receive : string  (** t6 *)

val t_process_ack : string  (** t7 *)
