module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn
module P = Tpan_protocols

type t = {
  name : string;
  summary : string;
  params : (string * Q.t) list;
  deliveries : string list;
  make : (string * Q.t) list -> Tpn.t;
}

(* [make] helpers: overrides must name declared parameters; the lookup
   falls back to the model's default. *)

let check_overrides name declared overrides =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k declared) then
        invalid_arg
          (Printf.sprintf "model %s has no parameter %s (available: %s)" name (Error.quote k)
             (match declared with
              | [] -> "none — bind symbols with -p instead"
              | l -> String.concat ", " (List.map fst l))))
    overrides

let getp defaults overrides k =
  match List.assoc_opt k overrides with
  | Some v -> v
  | None -> List.assoc k defaults

let stopwait_params =
  let d = P.Stopwait.paper_params in
  [
    ("timeout", d.P.Stopwait.timeout);
    ("send_time", d.P.Stopwait.send_time);
    ("transit_time", d.P.Stopwait.transit_time);
    ("process_time", d.P.Stopwait.process_time);
    ("packet_loss", d.P.Stopwait.packet_loss);
    ("ack_loss", d.P.Stopwait.ack_loss);
  ]

let make_stopwait ov =
  check_overrides "stopwait" stopwait_params ov;
  let g = getp stopwait_params ov in
  P.Stopwait.concrete
    {
      P.Stopwait.timeout = g "timeout";
      send_time = g "send_time";
      transit_time = g "transit_time";
      process_time = g "process_time";
      packet_loss = g "packet_loss";
      ack_loss = g "ack_loss";
    }

let abp_params =
  let d = P.Abp.default_params in
  [
    ("timeout", d.P.Abp.timeout);
    ("send_time", d.P.Abp.send_time);
    ("transit_time", d.P.Abp.transit_time);
    ("process_time", d.P.Abp.process_time);
    ("packet_loss", d.P.Abp.packet_loss);
    ("ack_loss", d.P.Abp.ack_loss);
  ]

let make_abp ov =
  check_overrides "abp" abp_params ov;
  let g = getp abp_params ov in
  P.Abp.concrete
    {
      P.Abp.timeout = g "timeout";
      send_time = g "send_time";
      transit_time = g "transit_time";
      process_time = g "process_time";
      packet_loss = g "packet_loss";
      ack_loss = g "ack_loss";
    }

let handshake_params =
  let d = P.Handshake.default_params in
  [
    ("retry_timeout", d.P.Handshake.retry_timeout);
    ("send_time", d.P.Handshake.send_time);
    ("transit_time", d.P.Handshake.transit_time);
    ("accept_time", d.P.Handshake.accept_time);
    ("session_time", d.P.Handshake.session_time);
    ("request_loss", d.P.Handshake.request_loss);
    ("reply_loss", d.P.Handshake.reply_loss);
  ]

let make_handshake ov =
  check_overrides "handshake" handshake_params ov;
  let g = getp handshake_params ov in
  P.Handshake.concrete
    {
      P.Handshake.retry_timeout = g "retry_timeout";
      send_time = g "send_time";
      transit_time = g "transit_time";
      accept_time = g "accept_time";
      session_time = g "session_time";
      request_loss = g "request_loss";
      reply_loss = g "reply_loss";
    }

let channel_params =
  let d = P.Shared_channel.default_params in
  [
    ("a_think", d.P.Shared_channel.a.P.Shared_channel.think_time);
    ("a_tx", d.P.Shared_channel.a.P.Shared_channel.tx_time);
    ("a_weight", d.P.Shared_channel.a.P.Shared_channel.weight);
    ("b_think", d.P.Shared_channel.b.P.Shared_channel.think_time);
    ("b_tx", d.P.Shared_channel.b.P.Shared_channel.tx_time);
    ("b_weight", d.P.Shared_channel.b.P.Shared_channel.weight);
  ]

let make_channel ov =
  check_overrides "channel" channel_params ov;
  let g = getp channel_params ov in
  P.Shared_channel.concrete
    {
      P.Shared_channel.a =
        { P.Shared_channel.think_time = g "a_think"; tx_time = g "a_tx"; weight = g "a_weight" };
      b =
        { P.Shared_channel.think_time = g "b_think"; tx_time = g "b_tx"; weight = g "b_weight" };
    }

let ring_params =
  let d = P.Token_ring.default_params in
  [
    ("frame_weight", d.P.Token_ring.frame_weight);
    ("idle_weight", d.P.Token_ring.idle_weight);
    ("tx_time", d.P.Token_ring.tx_time);
    ("pass_time", d.P.Token_ring.pass_time);
  ]

let make_ring ov =
  check_overrides "ring" ring_params ov;
  let g = getp ring_params ov in
  P.Token_ring.concrete
    {
      P.Token_ring.stations = P.Token_ring.default_params.P.Token_ring.stations;
      frame_weight = g "frame_weight";
      idle_weight = g "idle_weight";
      tx_time = g "tx_time";
      pass_time = g "pass_time";
    }

let pipeline_params =
  let d = P.Pipeline.default_params in
  ("inject_delay", d.P.Pipeline.inject_delay)
  :: List.mapi (fun i q -> (Printf.sprintf "hop%d" (i + 1), q)) d.P.Pipeline.hop_delays

let make_pipeline ov =
  check_overrides "pipeline" pipeline_params ov;
  let g = getp pipeline_params ov in
  let hops = List.length P.Pipeline.default_params.P.Pipeline.hop_delays in
  P.Pipeline.concrete
    {
      P.Pipeline.inject_delay = g "inject_delay";
      hop_delays = List.init hops (fun i -> g (Printf.sprintf "hop%d" (i + 1)));
    }

let batch_params =
  let d = P.Batch.default_params in
  [
    ("timeout", d.P.Batch.timeout);
    ("send_time", d.P.Batch.send_time);
    ("transit_time", d.P.Batch.transit_time);
    ("process_time", d.P.Batch.process_time);
    ("packet_loss", d.P.Batch.packet_loss);
    ("ack_loss", d.P.Batch.ack_loss);
  ]

let make_batch ov =
  check_overrides "batch" batch_params ov;
  let g = getp batch_params ov in
  P.Batch.concrete
    {
      P.Batch.window = P.Batch.default_params.P.Batch.window;
      timeout = g "timeout";
      send_time = g "send_time";
      transit_time = g "transit_time";
      process_time = g "process_time";
      packet_loss = g "packet_loss";
      ack_loss = g "ack_loss";
    }

let sym name mk =
 fun ov ->
  check_overrides name [] ov;
  mk ()

let all =
  [
    {
      name = "stopwait";
      summary = "the paper's stop-and-wait protocol, Figure 1b timings";
      params = stopwait_params;
      deliveries = [ P.Stopwait.t_process_ack ];
      make = make_stopwait;
    };
    {
      name = "stopwait-sym";
      summary = "stop-and-wait with symbolic times and frequencies";
      params = [];
      deliveries = [ P.Stopwait.t_process_ack ];
      make = sym "stopwait-sym" P.Stopwait.symbolic;
    };
    {
      name = "abp";
      summary = "alternating-bit protocol, two stop-and-wait phases";
      params = abp_params;
      deliveries = P.Abp.deliveries;
      make = make_abp;
    };
    {
      name = "abp-sym";
      summary = "alternating-bit protocol with shared timing symbols";
      params = [];
      deliveries = P.Abp.deliveries;
      make = sym "abp-sym" P.Abp.symbolic;
    };
    {
      name = "handshake";
      summary = "connection-establishment handshake with retry timer";
      params = handshake_params;
      deliveries = [ P.Handshake.t_establish ];
      make = make_handshake;
    };
    {
      name = "handshake-sym";
      summary = "handshake with symbolic times and frequencies";
      params = [];
      deliveries = [ P.Handshake.t_establish ];
      make = sym "handshake-sym" P.Handshake.symbolic;
    };
    {
      name = "channel";
      summary = "two stations arbitrating a shared channel";
      params = channel_params;
      deliveries = [ P.Shared_channel.t_grab_a; P.Shared_channel.t_grab_b ];
      make = make_channel;
    };
    {
      name = "scheduler-sym";
      summary = "weighted channel scheduler, symbolic core";
      params = [];
      deliveries = [ P.Shared_channel.t_grab_a; P.Shared_channel.t_grab_b ];
      make = sym "scheduler-sym" P.Shared_channel.symbolic;
    };
    {
      name = "ring";
      summary = "4-station token ring";
      params = ring_params;
      deliveries = [ P.Token_ring.use 0 ];
      make = make_ring;
    };
    {
      name = "ring-sym";
      summary = "4-station token ring with shared symbols";
      params = [];
      deliveries = [ P.Token_ring.use 0 ];
      make = sym "ring-sym" (fun () -> P.Token_ring.symbolic ~stations:4);
    };
    {
      name = "pipeline";
      summary = "deterministic 4-hop store-and-forward line";
      params = pipeline_params;
      deliveries = [ P.Pipeline.t_deliver ];
      make = make_pipeline;
    };
    {
      name = "batch";
      summary = "window-3 batch acknowledgement protocol";
      params = batch_params;
      deliveries = [ P.Batch.t_done ];
      make = make_batch;
    };
  ]

let names = List.map (fun m -> m.name) all
let find name = List.find_opt (fun m -> m.name = name) all
