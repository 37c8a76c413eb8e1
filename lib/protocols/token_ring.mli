(** A token-ring MAC: N stations pass a circulating token; a station
    holding the token either transmits a frame (with relative frequency
    [frame_weight], holding the medium for [tx_time]) or passes immediately
    (weight [idle_weight], taking [pass_time]).

    The model is parametric in the station count, so it doubles as the
    scaling workload for the reachability benchmarks; its mean cycle time
    has the closed form
    [N·(pass + p·tx)] with [p = frame_weight/(frame_weight+idle_weight)]
    when all stations are identical — asserted in the tests. *)

module Q = Tpan_mathkit.Q

type params = {
  stations : int;  (** ≥ 1 *)
  frame_weight : Q.t;  (** relative frequency of having a frame to send *)
  idle_weight : Q.t;
  tx_time : Q.t;  (** extra medium holding time when transmitting *)
  pass_time : Q.t;  (** token hand-off time *)
}

val default_params : params
(** 4 stations, p = 1/3 frame probability, tx 40, pass 5. *)

val net : stations:int -> Tpan_petri.Net.t
(** Places [tok0 … tok(N-1)]; transitions [use_i] / [skip_i] per station
    (a conflict-set pair on the token place). *)

val concrete : params -> Tpan_core.Tpn.t

val symbolic : stations:int -> Tpan_core.Tpn.t
(** Shared symbols [F(tx)], [F(pass)] (with positivity constraints) and
    frequencies [f(frame)], [f(idle)]. *)

val use : int -> string
(** Transition name [use_i]. *)
