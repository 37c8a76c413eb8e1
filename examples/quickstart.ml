(* Quickstart: model a protocol and get a throughput number through the
   Tpan.Artifact facade — build a net, call analysis, read the report.
   Every failure mode comes back as a value (Tpan.Error.t), so the example
   has no exception handling.

   Run with: dune exec examples/quickstart.exe *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn

let () =
  (* 1. Describe the net: a sender that transmits and waits for an ack over
     a lossy link, with a retransmission timeout. *)
  let b = Net.builder "mini" in
  let ready = Net.add_place b ~init:1 "ready" in
  let in_flight = Net.add_place b "in_flight" in
  let awaiting = Net.add_place b "awaiting" in
  let acked = Net.add_place b "acked" in
  let add name inputs outputs = ignore (Net.add_transition b ~name ~inputs ~outputs) in
  add "send" [ (ready, 1) ] [ (in_flight, 1); (awaiting, 1) ];
  add "lose" [ (in_flight, 1) ] [];
  add "deliver" [ (in_flight, 1) ] [ (acked, 1) ];
  add "done_" [ (acked, 1); (awaiting, 1) ] [ (ready, 1) ];
  add "timeout" [ (awaiting, 1) ] [ (ready, 1) ];
  let net = Net.build b in

  (* 2. Attach timing: E = enabling time (timeouts), F = firing time
     (duration), freq = conflict-resolution weight. *)
  let ms = Q.of_int in
  let tpn =
    Tpn.make net
      [
        ("send", Tpn.spec ~firing:(Tpn.Fixed (ms 2)) ());
        ("lose", Tpn.spec ~firing:(Tpn.Fixed (ms 50)) ~frequency:(Tpn.Freq (Q.of_ints 1 10)) ());
        ("deliver", Tpn.spec ~firing:(Tpn.Fixed (ms 50)) ~frequency:(Tpn.Freq (Q.of_ints 9 10)) ());
        ("done_", Tpn.spec ~firing:(Tpn.Fixed (ms 1)) ());
        (* the timeout must outlast one round trip; freq 0 = the ack wins ties *)
        ("timeout", Tpn.spec ~enabling:(Tpn.Fixed (ms 200)) ~firing:(Tpn.Fixed (ms 2))
             ~frequency:(Tpn.Freq Q.zero) ());
      ]
  in

  (* 3. Analyze through the facade: one call canonicalizes the net and
     runs timed reachability, decision-graph collapse and the rate solve. *)
  (match Tpan.Artifact.analysis ~throughputs:[ "done_" ] (Tpan.Canonical.of_tpn tpn) with
   | Error e ->
     Format.printf "analysis failed: %s@." (Tpan.Error.to_string e)
   | Ok report ->
     Format.printf "reachability graph: %d states@." report.Tpan.Analysis.states;
     let throughput = List.assoc "done_" report.Tpan.Analysis.throughputs in
     Format.printf "throughput: %a messages per ms (%.2f msg/s)@."
       (Q.pp_decimal ~digits:6) throughput
       (Q.to_float throughput *. 1000.);
     Format.printf "mean time per message: %a ms@." (Q.pp_decimal ~digits:3)
       (Q.inv throughput));

  (* 4. Cross-check by simulation. *)
  let stats = Tpan_sim.Simulator.run ~seed:7 ~horizon:(ms 1_000_000) tpn in
  Format.printf "simulated:  %.6f messages per ms@."
    (Tpan_sim.Simulator.throughput stats (Net.trans_of_name net "done_"))
