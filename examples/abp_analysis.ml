(* Alternating-bit protocol analysis: analytic throughput vs Monte-Carlo
   simulation, and a comparison against the paper's simpler stop-and-wait
   protocol across loss rates.

   Run with: dune exec examples/abp_analysis.exe *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn
module CG = Tpan_core.Concrete
module M = Tpan_perf.Measures
module Sim = Tpan_sim.Simulator
module Abp = Tpan_protocols.Abp
module SW = Tpan_protocols.Stopwait

(* Analytic completion rate of the named transitions. Lossless parameters
   make the whole system one deterministic cycle, which the decision graph
   solves through a renewal node like any other. *)
let completion_rate tpn names =
  let g = CG.build tpn in
  let res = M.Concrete.analyze g in
  List.fold_left (fun acc name -> Q.add acc (M.Concrete.throughput res g name)) Q.zero names

let abp_throughput p = completion_rate (Abp.concrete p) Abp.deliveries
let stopwait_throughput p = completion_rate (SW.concrete p) [ SW.t_process_ack ]

let () =
  let p = Abp.default_params in
  Format.printf "=== ABP at the paper's timings (5%% losses both ways) ===@.";
  let analytic = abp_throughput p in
  Format.printf "analytic : %.4f msg/s@." (Q.to_float analytic *. 1000.);

  let tpn = Abp.concrete p in
  let net = Tpn.net tpn in
  let est =
    Sim.replicate ~seed:2024 ~runs:5 ~horizon:(Q.of_int 500_000) tpn (fun s ->
        List.fold_left (fun acc t -> acc +. Sim.throughput s (Net.trans_of_name net t)) 0.
          Abp.deliveries)
  in
  let lo, hi = est.Sim.ci95 in
  Format.printf "simulated: %.4f msg/s (95%%: [%.4f, %.4f], %d runs)@."
    (est.Sim.mean *. 1000.) (lo *. 1000.) (hi *. 1000.) est.Sim.runs;

  Format.printf "@.=== ABP vs stop-and-wait across symmetric loss rates ===@.";
  Format.printf "%8s  %14s  %14s@." "loss" "stop&wait" "ABP";
  List.iter
    (fun pct ->
      let loss = Q.of_ints pct 100 in
      let sw =
        stopwait_throughput { SW.paper_params with SW.packet_loss = loss; ack_loss = loss }
      in
      let ab = abp_throughput { p with Abp.packet_loss = loss; ack_loss = loss } in
      Format.printf "%7d%%  %10.4f/s  %10.4f/s@." pct (Q.to_float sw *. 1000.)
        (Q.to_float ab *. 1000.))
    [ 0; 1; 2; 5; 10; 20; 30 ];
  Format.printf
    "@.(Both protocols degrade the same way: each loss costs one timeout period.@.\
     ABP's edge is correctness under duplication, not raw speed.)@."
