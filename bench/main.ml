(* Reproduction harness: regenerates every figure of the paper (the paper
   has no numbered tables; Figures 1, 3-8 carry all quantitative content)
   plus extension experiments, each with machine-checked PASS/FAIL
   assertions, followed by Bechamel microbenchmarks of the analysis
   pipeline.

   Run with: dune exec bench/main.exe *)

module Q = Tpan_mathkit.Q
module B = Tpan_mathkit.Bigint
module FM = Tpan_mathkit.Fourier_motzkin
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures
module Sim = Tpan_sim.Simulator
module SW = Tpan_protocols.Stopwait
module Abp = Tpan_protocols.Abp
module Sc = Tpan_protocols.Shared_channel
module O = Tpan_symbolic.Oracle

let failures = ref 0
let passes = ref 0

(* CI sizing: [--quick] (or TPAN_BENCH_SCALE < 1) shrinks the expensive
   extension experiments — fewer Erlang stages, shorter simulation
   horizons — without renaming any section or changing the JSON schema,
   so BENCH_history.ndjson rows stay comparable within a scale. *)
let quick = Array.exists (( = ) "--quick") Sys.argv

let bench_scale =
  match Sys.getenv_opt "TPAN_BENCH_SCALE" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some f when f > 0. && f <= 1. -> f
    | _ -> 1.0)
  | None -> if quick then 0.25 else 1.0

(* scaled simulation horizon (and similar integer budgets) *)
let scaled n = max 1 (int_of_float ((float_of_int n *. bench_scale) +. 0.5))

let check name cond =
  if cond then begin
    incr passes;
    Format.printf "  [PASS] %s@." name
  end
  else begin
    incr failures;
    Format.printf "  [FAIL] %s@." name
  end

(* per-section wall times, GC deltas, oracle statistics and microbenchmark
   rows are collected as the harness runs and dumped to BENCH_tpan.json at
   the end *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  major_collections : int;
  compactions : int;
}

let figure_times : (string * float * gc_delta) list ref = ref []

(* CPU seconds and GC deltas of one call *)
let measure f =
  let g0 = Gc.quick_stat () in
  (* quick_stat's allocation fields only refresh at collection slices on
     OCaml 5; Gc.minor_words reads the allocation pointer directly *)
  let mw0 = Gc.minor_words () in
  let t0 = Sys.time () in
  f ();
  let dt = Sys.time () -. t0 in
  let g1 = Gc.quick_stat () in
  ( dt,
    {
      minor_words = Gc.minor_words () -. mw0;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      compactions = g1.Gc.compactions - g0.Gc.compactions;
    } )

let record name (dt, gc) = figure_times := (name, dt, gc) :: !figure_times
let timed name f = record name (measure f)

let oracle_records : (string * O.stats) list ref = ref []

(* One EXT-PAR workload, dumped into the "parallel" array of
   BENCH_tpan.json; each pair is (-j1, -jN). [cpu] is user + system time
   from [Unix.times], which counts every domain: a -jN run that burns
   about N times its wall time got its cores, one that burns about its
   wall time did not, so a failed speedup check shows whether the host
   or the code is at fault. [minor_words] is the calling domain's
   allocation delta plus whatever the pool's worker domains reported
   through the par.pool.worker_minor_words histogram during the run, so
   it covers all domains too. *)
type parallel_record = {
  workload : string;
  jobs : int;
  wall : float * float;
  cpu : float * float;
  minor_words : float * float;
}

let parallel_records : parallel_record list ref = ref []

(* running total of worker-domain minor words, from the pool's histogram *)
let pool_minor_sum () =
  match Tpan_obs.Metrics.find "par.pool.worker_minor_words" with
  | Some (Tpan_obs.Metrics.Histogram_v h) -> h.sum
  | _ -> 0.

(* (stages, minor words) for each Erlang-stage Markov solve of EXT-EXP *)
let exp_records : (int * float) list ref = ref []

let section id title = Format.printf "@.==================== %s: %s ====================@." id title

let qd = Q.of_decimal_string
let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

let paper_time_bindings =
  [
    ("E(t3)", Q.of_int 1000);
    ("F(t1)", Q.one); ("F(t2)", Q.one); ("F(t3)", Q.one);
    ("F(t4)", qd "106.7"); ("F(t5)", qd "106.7");
    ("F(t6)", qd "13.5"); ("F(t7)", qd "13.5");
    ("F(t8)", qd "106.7"); ("F(t9)", qd "106.7");
  ]

let paper_freq_bindings =
  [
    ("f(t4)", Q.of_ints 1 20); ("f(t5)", Q.of_ints 19 20);
    ("f(t8)", Q.of_ints 19 20); ("f(t9)", Q.of_ints 1 20);
  ]

(* shared artefacts *)
let ctpn = SW.concrete SW.paper_params
let cgraph = CG.build ctpn
let cres = M.Concrete.analyze cgraph
let stpn = SW.symbolic ()
let sgraph = SG.build stpn
let sres = M.Symbolic.analyze sgraph

(* ---------------- FIG1 ---------------- *)

let fig1 () =
  section "FIG1" "the stop-and-wait protocol net and its timing table";
  print_string (Tpan_dsl.Printer.to_string ctpn);
  let sizes =
    Array.to_list (Tpn.conflict_sets ctpn) |> List.map List.length |> List.sort compare
  in
  check "three non-trivial conflict sets of size 2" (sizes = [ 1; 1; 1; 2; 2; 2 ]);
  let net = Tpn.net ctpn in
  check "9 transitions, 8 places" (Net.num_transitions net = 9 && Net.num_places net = 8);
  check "timeout enabling time is 1000 ms"
    (Q.equal (Tpn.enabling_q ctpn (Net.trans_of_name net "t3")) (Q.of_int 1000))

(* ---------------- FIG4 ---------------- *)

let fig4 () =
  section "FIG4" "concrete timed reachability graph (18 states)";
  Format.printf "%-4s %s@." "id" "marking + RET/RFT";
  Array.iteri
    (fun i st -> Format.printf "%-4d %a@." (i + 1) (CG.Graph.pp_state ctpn) st)
    cgraph.Sem.states;
  Format.printf "--- edges ---@.";
  Array.iter
    (fun edges ->
      List.iter
        (fun (e : CG.Graph.edge) ->
          Format.printf "  %2d -> %-2d  delay=%-8s p=%s@." (e.Sem.src + 1) (e.Sem.dst + 1)
            (qf e.Sem.delay) (qf e.Sem.prob))
        edges)
    cgraph.Sem.out;
  check "exactly 18 states (paper Figure 4)" (CG.Graph.num_states cgraph = 18);
  check "exactly 20 edges" (CG.Graph.num_edges cgraph = 20);
  check "two decision nodes (paper: states 3 and 11)"
    (List.length (Sem.branching_states cgraph) = 2);
  let t3 = Net.trans_of_name (Tpn.net ctpn) "t3" in
  let rets =
    Array.to_list cgraph.Sem.states
    |> List.filter_map (fun st ->
           if Q.is_zero st.Sem.ret.(t3) then None else Some st.Sem.ret.(t3))
    |> List.sort_uniq Q.compare
  in
  check "timeout residues {773.1, 879.8, 893.3, 1000}"
    (List.length rets = 4
    && List.for_all2 Q.equal rets (List.map qd [ "773.1"; "879.8"; "893.3"; "1000" ]))

(* ---------------- FIG5 ---------------- *)

let fig5 () =
  section "FIG5" "decision graph (probabilities and accumulated delays)";
  Format.printf "%a@."
    (DG.pp ~pp_delay:(Q.pp_decimal ~digits:6) ~pp_prob:(Q.pp_decimal ~digits:6))
    cres.Rates.dg;
  let has p d =
    List.exists
      (fun (e : _ DG.dedge) -> Q.equal e.DG.prob (qd p) && Q.equal e.DG.delay (qd d))
      cres.Rates.dg.DG.edges
  in
  check "edge 1: packet lost,    p=0.05, d=1002   (paper a1=1002)" (has "0.05" "1002");
  check "edge 3: packet through, p=0.95, d=120.2  (paper a3=120.2)" (has "0.95" "120.2");
  check "edge 2: ack through,    p=0.95, d=122.2  (paper a2=122.2)" (has "0.95" "122.2");
  check "edge 4: ack lost,       p=0.05, d=881.8" (has "0.05" "881.8");
  check "exactly 4 edges over 2 nodes"
    (List.length cres.Rates.dg.DG.edges = 4 && List.length cres.Rates.dg.DG.nodes = 2);
  let rates =
    List.sort Q.compare
      (List.map (fun (re : _ Rates.rated_edge) -> re.Rates.rate) cres.Rates.edge_rate)
  in
  check "relative rates {0.05, 0.0475, 0.9025, 0.95} (v(3) = 1 normalization)"
    (List.for_all2 Q.equal rates
       (List.sort Q.compare [ qd "0.05"; qd "0.0475"; qd "0.9025"; qd "0.95" ]));
  Format.printf "  total relative time per cycle = %s ms@." (qf cres.Rates.total_weight);
  check "sum of w_i = 316.461" (Q.equal cres.Rates.total_weight (qd "316.461"))

(* ---------------- FIG6 ---------------- *)

let fig6 () =
  section "FIG6" "symbolic timed reachability graph";
  Array.iteri
    (fun i st -> Format.printf "%-4d %a@." (i + 1) (SG.Graph.pp_state stpn) st)
    sgraph.Sem.states;
  check "18 symbolic states, isomorphic to Figure 4" (SG.Graph.num_states sgraph = 18);
  let t3 = Net.trans_of_name (Tpn.net stpn) "t3" in
  let e3 = Lin.var (Var.enabling "t3") in
  let f n = Lin.var (Var.firing n) in
  let rets =
    Array.to_list sgraph.Sem.states
    |> List.filter_map (fun st ->
           if Lin.equal st.Sem.ret.(t3) Lin.zero then None else Some st.Sem.ret.(t3))
    |> List.sort_uniq Lin.compare
  in
  let expect =
    [
      e3;
      Lin.sub e3 (f "t4");
      Lin.sub e3 (f "t5");
      Lin.sub e3 (Lin.add (f "t5") (f "t6"));
      Lin.sub e3 (Lin.add (f "t5") (Lin.add (f "t6") (f "t8")));
      Lin.sub e3 (Lin.add (f "t5") (Lin.add (f "t6") (f "t9")));
    ]
  in
  check "six symbolic timeout residues, as in Figure 6b"
    (List.length rets = 6 && List.for_all (fun w -> List.exists (Lin.equal w) rets) expect);
  (* delays at the paper point match the concrete graph edge for edge *)
  let env v = List.assoc (Var.name v) paper_time_bindings in
  let agree = ref true in
  Array.iteri
    (fun i sedges ->
      List.iter2
        (fun (se : SG.Graph.edge) (ce : CG.Graph.edge) ->
          if not (Q.equal ce.Sem.delay (Lin.eval env se.Sem.delay)) then agree := false)
        sedges cgraph.Sem.out.(i))
    sgraph.Sem.out;
  check "substituting Figure 1b times reproduces Figure 4 exactly" !agree

(* ---------------- FIG7 ---------------- *)

let fig7 () =
  section "FIG7" "timing constraints used in the reachability graph";
  let audit = SG.constraint_audit sgraph in
  List.iter
    (fun (s, d, labels) ->
      Format.printf "  transition %2d -> %-2d justified by constraint(s) %s@." (s + 1) (d + 1)
        (String.concat ", " labels))
    audit;
  let sets = List.map (fun (_, _, l) -> List.sort compare l) audit in
  let count l = List.length (List.filter (( = ) l) sets) in
  check "five constrained resolutions (paper Figure 7 rows)" (List.length audit = 5);
  check "constraint (1) alone used three times" (count [ "(1)" ] = 3);
  check "constraints (1)+(3) used once (loss-of-packet branch)" (count [ "(1)"; "(3)" ] = 1);
  check "constraints (1)+(4) used once (loss-of-ack branch)" (count [ "(1)"; "(4)" ] = 1)

(* ---------------- FIG8 ---------------- *)

let fig8 () =
  section "FIG8" "symbolic decision graph, traversal rates, relative times";
  Format.printf "%a@." (DG.pp ~pp_delay:Lin.pp ~pp_prob:Rf.pp) sres.Rates.dg;
  List.iteri
    (fun i (re : _ Rates.rated_edge) ->
      Format.printf "  r%d = %a@." (i + 1) Rf.pp re.Rates.rate)
    sres.Rates.edge_rate;
  let fr n = Poly.var (Var.frequency n) in
  let r1 = Rf.make (fr "t4") (Poly.add (fr "t4") (fr "t5")) in
  let r3 = Rf.make (fr "t5") (Poly.add (fr "t4") (fr "t5")) in
  let r2 =
    Rf.make
      (Poly.mul (fr "t5") (fr "t8"))
      (Poly.mul (Poly.add (fr "t4") (fr "t5")) (Poly.add (fr "t8") (fr "t9")))
  in
  let rates = List.map (fun (re : _ Rates.rated_edge) -> re.Rates.rate) sres.Rates.edge_rate in
  check "r(loss) = f4/(f4+f5)            (paper: r1)" (List.exists (Rf.equal r1) rates);
  check "r(to ack decision) = f5/(f4+f5) (paper: r3, renormalized)"
    (List.exists (Rf.equal r3) rates);
  check "r(success) = f5 f8 / ((f4+f5)(f8+f9)) (paper: r2)" (List.exists (Rf.equal r2) rates);
  (* delays of Figure 8 *)
  let d (re : _ Rates.rated_edge) = re.Rates.edge.DG.delay in
  let f n = Lin.var (Var.firing n) and e3 = Lin.var (Var.enabling "t3") in
  let sum = List.fold_left Lin.add Lin.zero in
  let d1 = sum [ e3; f "t3"; f "t2" ] in
  let d2 = sum [ f "t8"; f "t7"; f "t1"; f "t2" ] in
  let d3 = sum [ f "t5"; f "t6" ] in
  let d4 = Lin.add (Lin.sub e3 (Lin.add (f "t5") (f "t6"))) (Lin.add (f "t3") (f "t2")) in
  let delays = List.map d sres.Rates.edge_rate in
  check "d1 = E(t3)+F(t3)+F(t2)" (List.exists (Lin.equal d1) delays);
  check "d2 = F(t8)+F(t7)+F(t1)+F(t2)" (List.exists (Lin.equal d2) delays);
  check "d3 = F(t5)+F(t6)" (List.exists (Lin.equal d3) delays);
  check "d4 = E(t3)-F(t5)-F(t6)+F(t3)+F(t2)" (List.exists (Lin.equal d4) delays)

(* ---------------- THRPT ---------------- *)

let thrpt () =
  section "THRPT" "the throughput expression (paper section 4, final result)";
  let thr = M.Symbolic.throughput sres sgraph SW.t_process_ack in
  Format.printf "  throughput (general, canonical) = %a@." Rf.pp thr;
  check "canonical numerator is f(t8)*f(t5)"
    (Poly.equal (Rf.num thr) (Poly.mul (Poly.var (Var.frequency "t8")) (Poly.var (Var.frequency "t5"))));
  let spec = M.Symbolic.subst_frequencies thr paper_freq_bindings in
  Format.printf "  throughput|5%% loss = %a@." Rf.pp spec;
  let paper_expr =
    let c s = Poly.const (qd s) in
    let fv n = Poly.var (Var.firing n) in
    let e3 = Poly.var (Var.enabling "t3") in
    Rf.make (c "18.05")
      (Poly.add
         (Poly.mul (c "1.95") (Poly.add e3 (fv "t3")))
         (Poly.add
            (Poly.mul (c "20") (fv "t2"))
            (Poly.mul (c "18.05")
               (List.fold_left Poly.add Poly.zero [ fv "t1"; fv "t5"; fv "t6"; fv "t7"; fv "t8" ]))))
  in
  check
    "specialization equals the paper's closed form 18.05/(1.95(E(t3)+F(t3)) + 20 F(t2) + 18.05(F(t1)+F(t5)+F(t6)+F(t7)+F(t8)))"
    (Rf.equal spec paper_expr);
  let v = M.Symbolic.eval_at thr (paper_time_bindings @ paper_freq_bindings) in
  Format.printf "  at Figure 1b delays: %s msg/ms  (%.4f msg/s, mean %s ms/msg)@." (qf v)
    (Q.to_float v *. 1000.) (qf (Q.inv v));
  check "equals the exact concrete analysis"
    (Q.equal v (M.Concrete.throughput cres cgraph SW.t_process_ack));
  check "evaluates to 18.05/6329.22 msg/ms = 2.8519 msg/s"
    (Q.equal v (Q.div (qd "18.05") (qd "6329.22")));
  (* Monte-Carlo cross-check *)
  let t7 = Net.trans_of_name (Tpn.net ctpn) "t7" in
  let stats = Sim.run ~seed:42 ~horizon:(Q.of_int 3_000_000) ctpn in
  let sim = Sim.throughput stats t7 in
  Format.printf "  simulated (3e6 ms): %.6f msg/ms@." sim;
  check "simulation within 3% of the expression"
    (Float.abs (sim -. Q.to_float v) /. Q.to_float v < 0.03)

(* ---------------- EXT-SWEEP ---------------- *)

(* one loss-rate point: symbolic eval + simulation + full ABP analysis.
   Pure in the loss percentage, so the points fan out on the worker pool;
   each replication seeds from its own pct, keeping rows -j independent *)
let sweep_point thr pct =
  let loss = Q.of_ints pct 100 in
  let keep = Q.sub Q.one loss in
  let a =
    M.Symbolic.eval_at thr
      (paper_time_bindings
      @ [ ("f(t4)", loss); ("f(t5)", keep); ("f(t8)", keep); ("f(t9)", loss) ])
  in
  let p = { SW.paper_params with SW.packet_loss = loss; ack_loss = loss } in
  let tpn = SW.concrete p in
  let stats = Sim.run ~seed:(1000 + pct) ~horizon:(Q.of_int 600_000) tpn in
  let sim = Sim.throughput stats (Net.trans_of_name (Tpn.net tpn) "t7") in
  let abp_tpn =
    Abp.concrete { Abp.default_params with Abp.packet_loss = loss; ack_loss = loss }
  in
  let abp_g = CG.build abp_tpn in
  let abp_res = M.Concrete.analyze abp_g in
  let abp =
    List.fold_left
      (fun acc t -> Q.add acc (M.Concrete.throughput abp_res abp_g t))
      Q.zero Abp.deliveries
  in
  (pct, Q.to_float a *. 1000., sim *. 1000., Q.to_float abp *. 1000.)

let sweep_pcts = [ 1; 2; 5; 10; 20; 30 ]

let ext_sweep () =
  section "EXT-SWEEP" "throughput vs loss rate (analytic, simulated, ABP)";
  let thr = M.Symbolic.throughput sres sgraph SW.t_process_ack in
  (* the points run on the pool; rows come back in input order, so the
     table and the monotonicity check are identical at any jobs count *)
  let rows = Tpan_par.Pool.map (sweep_point thr) sweep_pcts in
  Format.printf "  %6s  %12s  %12s  %12s@." "loss" "analytic/s" "simulated/s" "ABP/s";
  List.iter
    (fun (pct, af, sim, abp) ->
      Format.printf "  %5d%%  %12.4f  %12.4f  %12.4f@." pct af sim abp)
    rows;
  let monotone =
    let rec go last = function
      | [] -> true
      | (_, af, _, _) :: rest -> af <= last && go af rest
    in
    go infinity rows
  in
  check "throughput decreases monotonically with loss" monotone

(* ---------------- EXT-TIMEOUT ---------------- *)

let ext_timeout () =
  section "EXT-TIMEOUT" "throughput vs timeout period (symbolic sweep)";
  let thr = M.Symbolic.throughput sres sgraph SW.t_process_ack in
  Format.printf "  %10s  %12s@." "E(t3) ms" "msg/s";
  let values =
    List.map
      (fun t ->
        let v =
          M.Symbolic.eval_at thr
            ((("E(t3)", Q.of_int t) :: List.remove_assoc "E(t3)" paper_time_bindings)
            @ paper_freq_bindings)
        in
        Format.printf "  %10d  %12.4f@." t (Q.to_float v *. 1000.);
        Q.to_float v)
      [ 230; 250; 300; 500; 1000; 2000; 4000 ]
  in
  let rec decreasing = function a :: (b :: _ as rest) -> a > b && decreasing rest | _ -> true in
  check "longer timeouts only hurt (monotone decreasing above the RTT bound)" (decreasing values);
  check "tight timeout (230 ms) beats the paper's 1000 ms by > 25%"
    (List.nth values 0 /. List.nth values 4 > 1.25)

(* ---------------- EXT-ABP ---------------- *)

let ext_abp () =
  section "EXT-ABP" "alternating-bit protocol (the paper's suggested extension)";
  let g = CG.build (Abp.concrete Abp.default_params) in
  Format.printf "  concrete TRG: %d states, %d edges, %d decision nodes@."
    (CG.Graph.num_states g) (CG.Graph.num_edges g)
    (List.length (Sem.branching_states g));
  check "52 states, 6 decision nodes"
    (CG.Graph.num_states g = 52 && List.length (Sem.branching_states g) = 6);
  let sg = SG.build (Abp.symbolic ()) in
  check "symbolic graph isomorphic (52 states)" (SG.Graph.num_states sg = 52);
  let res = M.Concrete.analyze g in
  let thr =
    List.fold_left (fun acc t -> Q.add acc (M.Concrete.throughput res g t)) Q.zero Abp.deliveries
  in
  Format.printf "  ABP delivery rate at Figure 1b timings: %.4f msg/s@."
    (Q.to_float thr *. 1000.);
  let sw = M.Concrete.throughput cres cgraph SW.t_process_ack in
  check "ABP within 5% of stop-and-wait (same loss cost, no prepare step)"
    (Float.abs ((Q.to_float thr /. Q.to_float sw) -. 1.0) < 0.05)

(* ---------------- EXT-SCHED ---------------- *)

let ext_sched () =
  section "EXT-SCHED" "weighted channel arbitration (closed-form share)";
  let tpn = Sc.symbolic () in
  let g = SG.build tpn in
  let res = M.Symbolic.analyze g in
  let share_a =
    M.edge_time_share res (fun e ->
        List.exists (fun t -> Net.trans_name (Tpn.net tpn) t = Sc.t_grab_a) e.DG.fired)
  in
  Format.printf "  station A channel share = %a@." Rf.pp share_a;
  let fa = Poly.var (Var.frequency "a") and fb = Poly.var (Var.frequency "b") in
  let txa = Poly.var (Var.firing "txa") and txb = Poly.var (Var.firing "txb") in
  check "share(A) = f(a)F(txa) / (f(a)F(txa) + f(b)F(txb))"
    (Rf.equal share_a (Rf.make (Poly.mul fa txa) (Poly.add (Poly.mul fa txa) (Poly.mul fb txb))))

(* ---------------- EXT-LATENCY ---------------- *)

let ext_latency () =
  section "EXT-LATENCY" "first-passage times (closed-form latency)";
  let module P = Tpan_perf.Passage in
  let deliver =
    Option.get (P.concrete_latency cgraph ~event:(P.completion_event ctpn SW.t_receive) ())
  in
  let acked =
    Option.get (P.concrete_latency cgraph ~event:(P.completion_event ctpn SW.t_process_ack) ())
  in
  Format.printf "  mean time to first delivery: %s ms@." (qf deliver);
  Format.printf "  mean time to first acked round trip: %s ms@." (qf acked);
  (* hand computation: 1 + x with x = .95(120.2) + .05(1002 + x) *)
  check "delivery latency = 16524/95 ms (hand-derived)"
    (Q.equal deliver (Q.div (qd "165.24") (qd "0.95")));
  check "ack latency exceeds delivery latency by >= one ack leg"
    (Q.compare (Q.sub acked deliver) (qd "120.2") >= 0);
  let sdeliver =
    Option.get
      (Tpan_perf.Passage.symbolic_latency sgraph
         ~event:(Tpan_perf.Passage.completion_event stpn SW.t_receive)
         ())
  in
  Format.printf "  symbolic delivery latency = %a@." Rf.pp sdeliver;
  let v = M.Symbolic.eval_at sdeliver (paper_time_bindings @ paper_freq_bindings) in
  check "symbolic latency evaluates to the concrete value" (Q.equal v deliver)

(* ---------------- EXT-INTERVAL ---------------- *)

let ext_interval () =
  section "EXT-INTERVAL" "delay ranges (the paper's future work, on the evaluation side)";
  let module Iv = Tpan_symbolic.Interval in
  let thr = M.Symbolic.throughput sres sgraph SW.t_process_ack in
  let env v =
    match Var.name v with
    | "E(t3)" -> Iv.point (Q.of_int 1000)
    | "F(t1)" | "F(t2)" | "F(t3)" -> Iv.point Q.one
    | "F(t4)" | "F(t5)" | "F(t8)" | "F(t9)" -> Iv.make (Q.of_int 95) (Q.of_int 115)
    | "F(t6)" | "F(t7)" -> Iv.point (qd "13.5")
    | "f(t4)" | "f(t9)" -> Iv.point (Q.of_ints 1 20)
    | "f(t5)" | "f(t8)" -> Iv.point (Q.of_ints 19 20)
    | other -> failwith other
  in
  let bounds = Iv.eval_ratfun env thr in
  Format.printf "  transit time in [95, 115] ms -> throughput in %a msg/ms@." Iv.pp bounds;
  Format.printf "  (i.e. [%.4f, %.4f] msg/s)@."
    (Q.to_float bounds.Iv.lo *. 1000.)
    (Q.to_float bounds.Iv.hi *. 1000.);
  let exact_at transit =
    M.Symbolic.eval_at thr
      ([
         ("E(t3)", Q.of_int 1000);
         ("F(t1)", Q.one); ("F(t2)", Q.one); ("F(t3)", Q.one);
         ("F(t4)", Q.of_int transit); ("F(t5)", Q.of_int transit);
         ("F(t6)", qd "13.5"); ("F(t7)", qd "13.5");
         ("F(t8)", Q.of_int transit); ("F(t9)", Q.of_int transit);
       ]
      @ paper_freq_bindings)
  in
  check "bounds bracket the exact values across the range"
    (List.for_all (fun t -> Iv.contains bounds (exact_at t)) [ 95; 100; 106; 110; 115 ]);
  check "bounds are finite and positive" (Q.sign bounds.Iv.lo > 0)

(* ---------------- EXT-RING ---------------- *)

let ext_ring () =
  section "EXT-RING" "token ring: closed-form cycle time and state-space scaling";
  let module TR = Tpan_protocols.Token_ring in
  let p = TR.default_params in
  let g = CG.build (TR.concrete p) in
  let res = M.Concrete.analyze g in
  let n0 = List.hd res.Rates.dg.DG.nodes in
  let cycle = M.mean_time_between_visits res n0 in
  Format.printf "  4 stations, p=1/3, tx=40, pass=5: token rotation = %s ms@." (qf cycle);
  check "rotation time = N(pass + p*tx) = 220/3" (Q.equal cycle (Q.of_ints 220 3));
  Format.printf "  scaling: %8s %8s %8s@." "stations" "states" "decisions";
  let ok = ref true in
  List.iter
    (fun n ->
      let g = CG.build (TR.concrete { p with TR.stations = n }) in
      let states = CG.Graph.num_states g in
      Format.printf "          %8d %8d %8d@." n states (List.length (Sem.branching_states g));
      if states <> 3 * n then ok := false)
    [ 2; 4; 8; 16; 32; 64 ];
  check "state space grows linearly (3 per station)" !ok;
  let sg = SG.build (TR.symbolic ~stations:3) in
  let sres = M.Symbolic.analyze sg in
  let scycle = M.mean_time_between_visits sres (List.hd sres.Rates.dg.DG.nodes) in
  Format.printf "  symbolic 3-station rotation = %a@." Rf.pp scycle

(* ---------------- EXT-PIPE ---------------- *)

let ext_pipe () =
  section "EXT-PIPE" "store-and-forward pipeline: concurrency and pacing";
  let module PL = Tpan_protocols.Pipeline in
  let p = PL.default_params in
  let tpn = PL.concrete p in
  let g = CG.build tpn in
  let max_active =
    Array.fold_left
      (fun acc st ->
        let k = Array.fold_left (fun k r -> if Q.is_zero r then k else k + 1) 0 st.Sem.rft in
        Stdlib.max acc k)
      0 g.Sem.states
  in
  Format.printf "  TRG: %d states; up to %d hops firing concurrently@."
    (CG.Graph.num_states g) max_active;
  check "true concurrency (>= 3 simultaneous firings)" (max_active >= 3);
  let per_packet = Q.inv (M.Concrete.throughput (M.Concrete.analyze g) g PL.t_deliver) in
  Format.printf "  steady cycle: %s ms per packet (bottleneck bound %s)@." (qf per_packet)
    (qf (PL.bottleneck p));
  check "pacing = worst adjacent-hop sum (marked-graph bound)"
    (Q.equal per_packet (PL.bottleneck p));
  let stats = Sim.run ~seed:3 ~horizon:(Q.of_int 200_000) tpn in
  let sim = Sim.throughput stats (Net.trans_of_name (Tpn.net tpn) PL.t_deliver) in
  Format.printf "  simulated: %.6f pkt/ms@." sim;
  check "simulation within 1% of 1/bottleneck"
    (Float.abs ((sim *. Q.to_float (PL.bottleneck p)) -. 1.) < 0.01)

(* ---------------- EXT-WINDOW ---------------- *)

let ext_window () =
  section "EXT-WINDOW" "parallel channels (a per-flow window): exact additivity";
  let small =
    {
      SW.timeout = Q.of_int 7; send_time = Q.one; transit_time = Q.of_int 2;
      process_time = Q.one; packet_loss = Q.of_ints 1 10; ack_loss = Q.of_ints 1 10;
    }
  in
  let sg1 = CG.build (SW.concrete small) in
  let r1 = M.Concrete.analyze sg1 in
  let single = M.Concrete.throughput r1 sg1 SW.t_process_ack in
  Format.printf "  %9s %9s %14s@." "channels" "states" "aggregate thr";
  Format.printf "  %9d %9d %14s@." 1 (CG.Graph.num_states sg1) (qf single);
  let ok = ref true in
  List.iter
    (fun n ->
      let g = CG.build ~max_states:200_000 (SW.parallel ~channels:n small) in
      let res = M.Concrete.analyze g in
      let total =
        List.fold_left
          (fun acc c -> Q.add acc (M.Concrete.throughput res g (Printf.sprintf "t7_c%d" c)))
          Q.zero
          (List.init n Fun.id)
      in
      Format.printf "  %9d %9d %14s@." n (CG.Graph.num_states g) (qf total);
      if not (Q.equal total (Q.mul (Q.of_int n) single)) then ok := false)
    [ 2 ];
  check "aggregate throughput = channels x single (exact, through the interleaved graph)" !ok;
  Format.printf
    "  (the paper-grain delays make the joint phase lattice astronomically large;@.\
    \   coarse delays keep it at hundreds of states — see Stopwait.parallel docs)@."

(* ---------------- EXT-SENS ---------------- *)

let ext_sens () =
  section "EXT-SENS" "sensitivity of throughput to every parameter (exact gradients)";
  let thr = M.Symbolic.throughput sres sgraph SW.t_process_ack in
  let at = paper_time_bindings @ paper_freq_bindings in
  let sens = M.Symbolic.sensitivities thr ~at in
  Format.printf "  %-8s %14s %12s@." "param" "d(thr)/d(v)" "elasticity";
  List.iter
    (fun (s : M.Symbolic.sensitivity) ->
      Format.printf "  %-8s %14.3e %12.4f@."
        (Var.name s.M.Symbolic.var)
        (Q.to_float s.M.Symbolic.gradient)
        (Q.to_float s.M.Symbolic.elasticity))
    sens;
  check "all time-parameter gradients are negative (delays only hurt)"
    (List.for_all
       (fun (s : M.Symbolic.sensitivity) ->
         (not (Var.is_time s.M.Symbolic.var)) || Q.sign s.M.Symbolic.gradient < 0)
       sens);
  let find name = List.find (fun s -> Var.name s.M.Symbolic.var = name) sens in
  check "packet-loss weight hurts, delivery weight helps"
    (Q.sign (find "f(t4)").M.Symbolic.gradient < 0
    && Q.sign (find "f(t5)").M.Symbolic.gradient > 0);
  (* at the paper point the timeout and the two transit legs dominate *)
  let top3 =
    match sens with
    | a :: b :: c :: _ -> List.map (fun s -> Var.name s.M.Symbolic.var) [ a; b; c ]
    | _ -> []
  in
  check "timeout and transit legs are the three dominant parameters"
    (List.sort compare top3 = [ "E(t3)"; "F(t5)"; "F(t8)" ])

(* ---------------- EXT-BATCH ---------------- *)

let ext_batch () =
  section "EXT-BATCH" "blast transfer: batching gain vs loss rate (who wins where)";
  let module B = Tpan_protocols.Batch in
  let thr w pct =
    let loss = Q.of_ints pct 100 in
    let p = { B.default_params with B.window = w; packet_loss = loss; ack_loss = loss } in
    let tpn = B.concrete p in
    let g = CG.build ~max_states:200_000 tpn in
    let res = M.Concrete.analyze g in
    Q.to_float (Q.mul (Q.of_int w) (M.Concrete.throughput res g B.t_done)) *. 1000.
  in
  Format.printf "  %6s %10s %10s %10s %12s@." "loss" "w=1" "w=2" "w=3" "gain w3/w1";
  let ratios =
    List.map
      (fun pct ->
        let a = thr 1 pct and b = thr 2 pct and c = thr 3 pct in
        Format.printf "  %5d%% %10.4f %10.4f %10.4f %12.2f@." pct a b c (c /. a);
        (a, b, c))
      [ 1; 5; 10; 20; 30; 40 ]
  in
  check "batching always helps at equal loss"
    (List.for_all (fun (a, b, c) -> b > a && c > b) ratios);
  let first = match ratios with (a, _, c) :: _ -> c /. a | [] -> 0. in
  let last = match List.rev ratios with (a, _, c) :: _ -> c /. a | [] -> 0. in
  check
    (Printf.sprintf "the batching gain shrinks with loss (%.2fx at 1%% -> %.2fx at 40%%)" first last)
    (first > last +. 0.5);
  check "w=1 blast is exactly the paper's stop-and-wait"
    (let p1 = { B.default_params with B.window = 1 } in
     let g = CG.build (B.concrete p1) in
     let res = M.Concrete.analyze g in
     Q.equal (M.Concrete.throughput res g B.t_done)
       (M.Concrete.throughput cres cgraph SW.t_process_ack))

(* ---------------- EXT-RANGE ---------------- *)

let ext_range () =
  section "EXT-RANGE" "ranges of firing times (the paper's proposed model extension)";
  let module R = Tpan_core.Ranged in
  let widen lo hi =
    [ ("t4", (Q.of_int lo, Q.of_int hi)); ("t5", (Q.of_int lo, Q.of_int hi));
      ("t8", (Q.of_int lo, Q.of_int hi)); ("t9", (Q.of_int lo, Q.of_int hi)) ]
  in
  (* transit anywhere in [100, 115] ms, timeout 1000: worst-case round trip
     is 243.5 ms, comfortably inside the timeout *)
  let generous = R.of_tpn ~widen:(widen 100 115) ctpn in
  let markings = R.reachable_markings generous in
  Format.printf "  transit in [100,115], timeout 1000: %d reachable markings, safe@."
    (List.length markings);
  check "ranged behaviour adds no markings (9, as in the fixed-delay model)"
    (List.length markings = 9 && R.safe generous);
  (* a timeout inside the worst-case round trip violates constraint (1)
     for part of the range: premature retransmission breaks safeness *)
  let tight =
    R.of_tpn ~widen:(widen 100 115)
      (SW.concrete { SW.paper_params with SW.timeout = Q.of_int 230 })
  in
  Format.printf "  transit in [100,115], timeout 230 (< max RTT 243.5): %s@."
    (if R.safe tight then "safe (unexpected)" else "safeness assumption violated");
  check "a timeout inside the round-trip range breaks the safeness assumption"
    (not (R.safe tight));
  check "the fixed-delay boundary case stays safe (timeout 244 > 243.5)"
    (R.safe
       (R.of_tpn ~widen:(widen 100 115)
          (SW.concrete { SW.paper_params with SW.timeout = Q.of_int 244 })))

(* ---------------- EXT-EXP ---------------- *)

let ext_exp () =
  section "EXT-EXP" "deterministic delays vs the exponential (Markov) assumption";
  let module Exp = Tpan_perf.Exponential in
  let module PL = Tpan_protocols.Pipeline in
  let module TR = Tpan_protocols.Token_ring in
  (* pipeline: variability costs throughput *)
  let p = PL.default_params in
  let tpn = PL.concrete p in
  let det = Q.inv (PL.bottleneck p) in
  let c = Exp.build tpn in
  let pi = Exp.steady_state c in
  let expo = Exp.throughput c ~steady:pi (Net.trans_of_name (Tpn.net tpn) PL.t_deliver) in
  Format.printf "  pipeline: deterministic %.6f pkt/ms  vs  exponential %.6f pkt/ms (%.1f%%)@."
    (Q.to_float det) (Q.to_float expo)
    (100. *. Q.to_float expo /. Q.to_float det);
  check "exponential assumption under-predicts pipeline throughput"
    (Q.compare expo det < 0);
  (* sequential ring with equal conflict means: the readings coincide *)
  let rp = { TR.default_params with TR.tx_time = Q.zero } in
  let rtpn = TR.concrete rp in
  let rg = CG.build rtpn in
  let rres = M.Concrete.analyze rg in
  let rdet = M.Concrete.throughput rres rg (TR.use 0) in
  let rc = Exp.build rtpn in
  let rpi = Exp.steady_state rc in
  let rexp = Exp.throughput rc ~steady:rpi (Net.trans_of_name (Tpn.net rtpn) (TR.use 0)) in
  Format.printf "  sequential ring (equal means): det %s = exp %s@." (qf rdet) (qf rexp);
  check "sequential systems are insensitive to the distribution assumption"
    (Q.equal rdet rexp);
  (* Erlang-k stages: shrinking the service variance closes the gap. The
     three expansions are independent solves, so they fan out on the pool
     (inside a worker the rate solver's own row-parallelism steps aside
     via the nested guard); printing happens after the join, in order *)
  let thr k =
    (* per-run allocation: deltas stay per-domain correct even when the
       stages fan out on the pool, because each task runs start-to-finish
       on one domain *)
    let mw0 = Gc.minor_words () in
    let tpn = Exp.erlang_expand ~stages:k (PL.concrete p) in
    let c = Exp.build ~max_states:200_000 tpn in
    let pi = Exp.steady_state c in
    let name = PL.t_deliver ^ (if k = 1 then "" else "__" ^ string_of_int (k - 1)) in
    let v = Exp.throughput c ~steady:pi (Net.trans_of_name (Tpn.net tpn) name) in
    exp_records := (k, Gc.minor_words () -. mw0) :: !exp_records;
    v
  in
  (* the Erlang-3 expansion dominates the full harness's wall time; quick
     mode stops at 2 stages, which still exhibits the convergence *)
  let stages = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let values = Tpan_par.Pool.map thr stages in
  List.iter
    (fun (k, mw) ->
      Format.printf "  Erlang-%d solve allocated %.3e minor words@." k mw)
    (List.sort compare !exp_records);
  let fractions =
    List.map2
      (fun k v ->
        let frac = Q.to_float v /. Q.to_float det in
        Format.printf "  pipeline under Erlang-%d service: %.1f%% of deterministic@." k
          (100. *. frac);
        frac)
      stages values
  in
  check "Erlang stages converge monotonically toward the deterministic bound"
    (match fractions with
     | [ a; b; c ] -> a < b && b < c && c < 1.0
     | [ a; b ] -> a < b && b < 1.0
     | _ -> false)

(* ---------------- EXT-PAR ---------------- *)

(* Speedup of the worker pool on the two workloads the CLI parallelises:
   the parameter-grid sweep and Monte-Carlo replication. Each workload
   runs at -j1 and at the recommended jobs count; the results must be
   identical (the pool's headline guarantee) and both wall times are
   recorded in BENCH_tpan.json. The replication speedup check only
   applies on multicore hosts — on a single-core container the pool
   degrades to the sequential path and the ratio is ~1. *)
let ext_par () =
  section "EXT-PAR" "worker-pool speedup and -j determinism";
  let module Pool = Tpan_par.Pool in
  let module Sweep = Tpan_perf.Sweep in
  let jn = Pool.recommended_jobs () in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let wall f =
    let t0 = Unix.gettimeofday () and c0 = cpu () in
    let mw0 = Gc.minor_words () +. pool_minor_sum () in
    let r = f () in
    let mw = Gc.minor_words () +. pool_minor_sum () -. mw0 in
    (r, Unix.gettimeofday () -. t0, cpu () -. c0, mw)
  in
  (* Five interleaved j1/jN rounds, each side keeping its fastest run: a
     replication batch takes ~0.1 s, short enough for one scheduler
     hiccup on a shared host to halve a single sample's speedup, and
     interleaving exposes both sides to the same background load. *)
  let record name run_at =
    let rounds =
      List.init 5 (fun _ -> (wall (fun () -> run_at 1), wall (fun () -> run_at jn)))
    in
    let fastest runs =
      List.fold_left
        (fun ((_, t, _, _) as b) ((_, t', _, _) as x) -> if t' < t then x else b)
        (List.hd runs) runs
    in
    let r1, t1, c1, mw1 = fastest (List.map fst rounds) in
    let rn, tn, cn, mwn = fastest (List.map snd rounds) in
    parallel_records :=
      { workload = name; jobs = jn; wall = (t1, tn); cpu = (c1, cn); minor_words = (mw1, mwn) }
      :: !parallel_records;
    Format.printf
      "  %-18s  j1 %8.3f s (cpu %.3f s, %.2e mw)   j%d %8.3f s (cpu %.3f s, %.2e mw)   \
       speedup %.2fx@."
      name t1 c1 mw1 jn tn cn mwn (t1 /. tn);
    (r1, rn, t1 /. tn)
  in
  (* 1. concrete parameter-grid sweep: per-point rebuild + full analysis *)
  let axes =
    [ { Sweep.name = "timeout"; lo = Q.of_int 250; hi = Q.of_int 1000; steps = 8 } ]
  in
  let make pt =
    SW.concrete { SW.paper_params with SW.timeout = List.assoc "timeout" pt }
  in
  let s1, sn, _ =
    record "sweep-grid" (fun jobs ->
        Sweep.over_tpn ~jobs ~make ~throughputs:[ SW.t_process_ack ] axes)
  in
  check "sweep grid is byte-identical at -j1 and -jN"
    (Tpan_obs.Jsonv.to_string (Tpan_obs.Jsonv.Obj (Sweep.fields s1))
    = Tpan_obs.Jsonv.to_string (Tpan_obs.Jsonv.Obj (Sweep.fields sn)));
  (* 2. Monte-Carlo replication with split seeds *)
  let t7 = Net.trans_of_name (Tpn.net ctpn) "t7" in
  let m1, mn, mc_speedup =
    record "monte-carlo-x8" (fun jobs ->
        Sim.run_many ~seed:11 ~jobs ~runs:8 ~horizon:(Q.of_int (scaled 150_000)) ctpn
          (fun stats -> Sim.throughput stats t7))
  in
  check "Monte-Carlo estimate is bit-identical at -j1 and -jN" (m1 = mn);
  (* the sections after this one run at the recommended jobs count *)
  Pool.set_default_jobs jn;
  (* scaled-down workloads are too small to amortize domain spawning, so
     the speedup assertion only runs at full size on multicore hosts; the
     bound grows with the jobs count (1.2x at j2, 4.8x from j8 on) — a
     pool that fails to fan out stays at ~1x *)
  if jn > 1 && not quick && bench_scale >= 1.0 then begin
    let bound = 0.6 *. float_of_int (min jn 8) in
    check
      (Printf.sprintf "Monte-Carlo replication speeds up >= %.2fx on the pool" bound)
      (mc_speedup >= bound)
  end
  else if jn <= 1 then
    Format.printf
      "  single-core host (recommended jobs = 1): speedup checks not applicable@."
  else
    Format.printf "  quick/scaled run: speedup checks skipped (workloads too small)@."

(* ---------------- CHECK ---------------- *)

module CK = Tpan_check.Check

let check_diff () =
  section "CHECK" "three-way differential checker (exact = numeric = simulated)";
  let cfg = { CK.default with CK.samples = scaled 5; runs = max 4 (scaled 6); seed = 7 } in
  let run_one name delivery tpn =
    match CK.check_tpn ~config:cfg ~name ~delivery tpn with
    | Ok o ->
      Format.printf "  %a@." CK.pp_outcome o;
      check (name ^ ": all points three-way agree") (CK.ok o && o.CK.agreed = o.CK.points)
    | Error e ->
      Format.printf "  %s: ERROR %s@." name (Tpan_core.Error.to_string e);
      check (name ^ ": all points three-way agree") false
  in
  run_one "stopwait-sym" "t7" stpn;
  run_one "abp" (List.hd Abp.deliveries) (Abp.concrete Abp.default_params);
  let cases = scaled 12 in
  let fuzz_cfg = { cfg with CK.samples = 2; seed = 70 } in
  let results = CK.fuzz ~config:fuzz_cfg ~cases () in
  let bad =
    List.filter
      (fun (_, r) -> match r with Ok o -> not (CK.ok o) | Error _ -> true)
      results
  in
  Format.printf "  fuzz: %d generated nets, %d disagreeing or errored@." cases
    (List.length bad);
  check "fuzz: every generated stop-and-wait-family net three-way agrees" (bad = []);
  (* Sensitivity: an off-by-one injected into the closed form must be
     flagged — otherwise the agreement checks above prove nothing. *)
  let thr = M.Symbolic.throughput sres sgraph "t7" in
  let buggy =
    Rf.subst
      (fun v ->
        if Var.equal v (Var.enabling "t3") then
          Some (Poly.add (Poly.var v) (Poly.const Q.one))
        else None)
      thr
  in
  match
    CK.check_tpn ~config:cfg ~expr:buggy ~name:"stopwait-sym(buggy)" ~delivery:"t7" stpn
  with
  | Ok o ->
    Format.printf "  injected bug: %d/%d points disagree@."
      (List.length o.CK.failures) o.CK.points;
    check "an injected off-by-one in E(t3) is caught" (not (CK.ok o))
  | Error e ->
    Format.printf "  injected bug: ERROR %s@." (Tpan_core.Error.to_string e);
    check "an injected off-by-one in E(t3) is caught" false

(* ---------------- ORACLE ---------------- *)

let oracle_model name make_tpn =
  (* a fresh net so the counters cover exactly one build + analysis *)
  let tpn = make_tpn () in
  let g = SG.build tpn in
  let _ = M.Symbolic.analyze g in
  let st = O.stats (Tpn.oracle tpn) in
  Format.printf "  %s: %a@." name O.pp_stats st;
  oracle_records := (name, st) :: !oracle_records;
  st

let oracle () =
  section "ORACLE" "memoized constraint oracle vs direct Fourier-Motzkin";
  let sw = oracle_model "stopwait" SW.symbolic in
  let abp = oracle_model "abp" Abp.symbolic in
  check "every query is answered without error (no unaccounted misses)"
    (let total st = st.O.trivial + st.O.hits + st.O.misses in
     total sw = sw.O.queries && total abp = abp.O.queries);
  check "stop-and-wait: >= 5x fewer eliminations than the uncached procedure"
    (sw.O.baseline_fm_runs >= 5 * sw.O.fm_runs);
  check "ABP: >= 5x fewer eliminations than the uncached procedure"
    (abp.O.baseline_fm_runs >= 5 * abp.O.fm_runs);
  check "witness filter fires (refutations without elimination)"
    (sw.O.witness_refutations > 0)

(* ---------------- CHECKPOINT ---------------- *)

(* What arming the flight recorder costs: the ABP TRG build (the
   checkpoint sits in the per-interned-state loop) repeated under an
   ambient deadline token that never fires — every checkpoint then pays
   the full poll (DLS load, heartbeat bump, deadline compare) — vs the
   bare run, where it short-circuits on the [None] match. The builds run
   in five interleaved bare/armed rounds, as EXT-PAR's do, and each
   side's fastest round, scaled back to the whole batch, is compared:
   with one batch per side, a burst of host noise on one side alone read
   1.338 on a tree that otherwise reads 0.99–1.22. The ratio is asserted
   here, so a checkpoint that grows a syscall or an allocation fails the
   harness outright; [timed "CHECKPOINT"] records the whole section's
   time, which bench-diff gates like any other figure. *)
let checkpoint_overhead () =
  section "CHECKPOINT" "cancellation-checkpoint overhead on the TRG build";
  let rounds = 5 in
  let reps = max 1 (scaled 2000 / rounds) in
  let tpn = Abp.concrete Abp.default_params in
  let build () = ignore (CG.build tpn) in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    Sys.time () -. t0
  in
  build ();
  (* warm *)
  let ctx = Tpan_obs.Context.make ~deadline:3600. () in
  let pairs =
    List.init rounds (fun _ ->
        let bare = time build in
        (bare, Tpan_obs.Context.with_ctx ctx (fun () -> time build)))
  in
  List.iteri
    (fun i (bare, armed) ->
      Format.printf "  round %d of %d builds: bare %.4fs, armed %.4fs@." (i + 1) reps bare armed)
    pairs;
  let fastest side = float_of_int rounds *. List.fold_left min infinity (List.map side pairs) in
  let bare = fastest fst and armed = fastest snd in
  Format.printf "ABP TRG build x%d, fastest rounds scaled: bare %.4fs, armed %.4fs (ratio %.3f)@."
    (rounds * reps) bare armed (armed /. bare);
  check "armed checkpoints cost <= 1.25x bare (plus 10ms timer slack)"
    (armed <= (bare *. 1.25) +. 0.01)

(* ---------------- QEVAL ---------------- *)

(* The exact evaluation behind every /eval memo miss, on the largest
   builtin closed form: the symbolic ABP's delivery throughput. Each
   point is timed [reps] times; BENCH_tpan.json keeps the median and
   the spread (min, max). The paper's decimal point is the hard case:
   every power of 106.7 grows the denominators, which a per-term ℚ fold
   would pay a gcd for at every step. *)
let qeval_records : (string * int * int * float * float * float) list ref = ref []

let qeval () =
  section "QEVAL" "exact evaluation of the ABP closed form";
  let m = Option.get (Tpan.Models.find "abp-sym") in
  let g = SG.build (m.Tpan.Models.make []) in
  let cf = M.Symbolic.throughput (M.Symbolic.analyze g) g (List.hd m.Tpan.Models.deliveries) in
  let terms = Poly.size (Rf.num cf) + Poly.size (Rf.den cf) in
  let reps = scaled 40 in
  let run name point =
    let point = List.map (fun (k, v) -> (k, qd v)) point in
    let samples =
      Array.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (M.Symbolic.eval_at cf point);
          (Unix.gettimeofday () -. t0) *. 1e3)
    in
    Array.sort compare samples;
    let median = samples.(reps / 2) and lo = samples.(0) and hi = samples.(reps - 1) in
    Format.printf "  %-14s %d terms x%d: median %.3f ms (min %.3f, max %.3f)@." name terms reps
      median lo hi;
    qeval_records := (name, terms, reps, median, lo, hi) :: !qeval_records;
    median
  in
  let paper =
    run "paper-decimal"
      [
        ("E(to)", "1000"); ("F(send)", "1"); ("F(pkt)", "106.7"); ("F(proc)", "13.5");
        ("F(ack)", "106.7"); ("f(lp)", "0.05"); ("f(dp)", "0.95"); ("f(la)", "0.05");
        ("f(da)", "0.95");
      ]
  in
  ignore
    (run "integer"
       [
         ("E(to)", "400"); ("F(send)", "2"); ("F(pkt)", "100"); ("F(proc)", "13");
         ("F(ack)", "107"); ("f(lp)", "3"); ("f(dp)", "40"); ("f(la)", "2"); ("f(da)", "33");
       ]);
  check "ABP closed form at the paper's decimal point evaluates in < 100 ms" (paper < 100.)

(* ---------------- SERVE ---------------- *)

(* What the artifact cache buys a served deployment: the same POST /eval
   request on the symbolic ABP net, answered through [Serve.handle] (the
   exact code path behind the socket listener), first with the caches
   wiped before every request — each one pays the symbolic TRG build,
   the rate solve, the closed-form derivation with its compiled
   evaluation program and the exact evaluation (the QEVAL figure) —
   then against the warm cache, where only canonicalization, key lookup
   and the memoised answer remain. The check is what the cache promises:
   across the warm batch no symbolic or closed-form build runs (no miss)
   and no TRG state is interned. The ratio is printed, not gated: with
   closed forms in lowest terms a cold ABP derivation takes milliseconds,
   so the ratio measures the derivation more than the cache. The cached
   batch runs five rounds, and the SERVE figure records the median
   round, so bench-diff gates the hot serving path rather than the cold
   derivations or one round's jitter (a single round read 0.083–0.141
   ms/req on unchanged code). *)
let serve_cache () =
  section "SERVE" "artifact cache on the /eval serving path (symbolic ABP)";
  let body =
    {|{"model":"abp-sym","transition":"recv_new0","point":{
        "E(to)":"1000","F(send)":"1","F(pkt)":"106.7","F(proc)":"13.5",
        "F(ack)":"106.7","f(lp)":"0.05","f(dp)":"0.95","f(la)":"0.05",
        "f(da)":"0.95"}}|}
  in
  let eval () =
    let r =
      Tpan_serve.Serve.handle Tpan_serve.Serve.default_config ~meth:"POST"
        ~target:"/eval" ~body
    in
    if r.Tpan_serve.Serve.status <> 200 then
      failwith (Printf.sprintf "SERVE: /eval answered %d: %s" r.Tpan_serve.Serve.status
           r.Tpan_serve.Serve.body)
  in
  let time reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let cold_reps = 5 and warm_reps = scaled 2000 and warm_rounds = 5 in
  let cold =
    time cold_reps (fun () ->
        Tpan.Artifact.reset_caches ();
        eval ())
  in
  Tpan.Artifact.reset_caches ();
  eval ();
  (* warm the cache *)
  let counters =
    [ "cache.symbolic.misses"; "cache.closed_form.misses"; "core.semantics.states_interned" ]
  in
  let read () = List.map Tpan_obs.Metrics.counter_value counters in
  let before = read () in
  let rounds =
    List.init warm_rounds (fun _ ->
        measure (fun () ->
            for _ = 1 to warm_reps do
              eval ()
            done))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let moved =
    List.filter_map
      (fun (name, (b, a)) -> if a <> b then Some (Printf.sprintf "%s +%d" name (a - b)) else None)
      (List.combine counters (List.combine before (read ())))
  in
  let per_req (dt, _) = dt /. float_of_int warm_reps *. 1e3 in
  let median = List.nth rounds (warm_rounds / 2) in
  record "SERVE" median;
  Format.printf
    "  uncached /eval (full symbolic build) %.1fms/req, cached %.4fms/req — %.0fx@."
    (cold *. 1e3) (per_req median) (cold *. 1e3 /. per_req median);
  Format.printf "  cached: median of %d rounds of %d requests, range %.4f–%.4f ms/req@."
    warm_rounds warm_reps (per_req (List.hd rounds))
    (per_req (List.nth rounds (warm_rounds - 1)));
  if moved <> [] then Format.printf "  moved across the warm batch: %s@." (String.concat ", " moved);
  check "cached /eval builds nothing: no symbolic or closed-form miss, no TRG state interned"
    (moved = [])

(* ---------------- SERVE-KEEPALIVE ---------------- *)

(* What connection reuse buys the socket plane: the same GET /healthz
   request against a live in-process listener, once
   over a fresh TCP connection per request — connect, one request,
   [Connection: close], EOF — and once down a single keep-alive
   connection in pipelined batches of 20. The endpoint is deliberately
   near-free so the figure isolates the connection plane (accept,
   handshake, framing, teardown); what the artifact cache buys /eval
   is the SERVE figure's story. Wall-clock, not CPU time: the server
   runs in its own domain of this process. *)
let serve_keepalive_close_rps = ref Float.nan
let serve_keepalive_reuse_rps = ref Float.nan
let serve_keepalive_ratio = ref Float.nan

let serve_keepalive () =
  section "SERVE-KEEPALIVE" "keep-alive + pipelining vs connection-per-request";
  let config =
    {
      Tpan_serve.Serve.default_config with
      Tpan_serve.Serve.port = Some 0;
      max_requests_per_conn = 0 (* unlimited: the reuse side is the point *);
    }
  in
  let port_cell = Atomic.make None in
  let srv =
    Domain.spawn (fun () ->
        Tpan_serve.Serve.run ~ready:(fun p -> Atomic.set port_cell p) config)
  in
  let rec wait_port tries =
    match Atomic.get port_cell with
    | Some p -> p
    | None ->
      if tries > 5000 then failwith "SERVE-KEEPALIVE: server never became ready";
      Unix.sleepf 0.002;
      wait_port (tries + 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Tpan_serve.Serve.shutdown ();
      Domain.join srv)
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, wait_port 0) in
      let request ~close =
        Printf.sprintf "GET /healthz HTTP/1.1\r\nHost: bench\r\n%s\r\n"
          (if close then "Connection: close\r\n" else "")
      in
      let send_all fd s =
        let b = Bytes.unsafe_of_string s in
        let len = Bytes.length b in
        let rec go off =
          if off < len then
            match Unix.write fd b off (len - off) with
            | n -> go (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        in
        go 0
      in
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let refill fd =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "SERVE-KEEPALIVE: unexpected EOF"
        | n -> Buffer.add_subbytes buf chunk 0 n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      in
      (* consume exactly one response off [fd]'s buffered stream *)
      let rec read_one ?(from = 0) fd =
        match Tpan_serve.Http.decode_response ~from buf with
        | Complete (_, used) ->
          let rest = Buffer.sub buf used (Buffer.length buf - used) in
          Buffer.clear buf;
          Buffer.add_string buf rest
        | Incomplete { from; _ } ->
          refill fd;
          read_one ~from fd
        | Malformed (_, msg) -> failwith ("SERVE-KEEPALIVE: " ^ msg)
      in
      let close_n = max 50 (scaled 400) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to close_n do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        send_all fd (request ~close:true);
        Buffer.clear buf;
        read_one fd;
        try Unix.close fd with Unix.Unix_error _ -> ()
      done;
      let close_s = Unix.gettimeofday () -. t0 in
      let batch = 20 in
      let batches = max 10 (scaled 200) in
      let batch_req =
        String.concat "" (List.init batch (fun _ -> request ~close:false))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd addr;
      Buffer.clear buf;
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batches do
        send_all fd batch_req;
        for _ = 1 to batch do
          read_one fd
        done
      done;
      let reuse_s = Unix.gettimeofday () -. t0 in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let close_rps = float_of_int close_n /. close_s in
      let reuse_rps = float_of_int (batch * batches) /. reuse_s in
      let ratio = reuse_rps /. close_rps in
      serve_keepalive_close_rps := close_rps;
      serve_keepalive_reuse_rps := reuse_rps;
      serve_keepalive_ratio := ratio;
      Format.printf
        "  connection-per-request %.0f req/s, pipelined keep-alive (batches of \
         %d) %.0f req/s — %.1fx@."
        close_rps batch reuse_rps ratio;
      check "keep-alive + pipelining >= 3x connection-per-request" (ratio >= 3.))

(* ---------------- PERF (bechamel) ---------------- *)

let perf () =
  section "PERF" "microbenchmarks of the analysis pipeline (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"tpan"
      [
        Test.make ~name:"trg/stopwait-concrete" (Staged.stage (fun () -> CG.build ctpn));
        Test.make ~name:"trg/stopwait-symbolic" (Staged.stage (fun () -> SG.build stpn));
        Test.make ~name:"trg/abp-concrete"
          (Staged.stage
             (let tpn = Abp.concrete Abp.default_params in
              fun () -> CG.build tpn));
        Test.make ~name:"rates/stopwait-concrete"
          (Staged.stage (fun () -> M.Concrete.analyze cgraph));
        Test.make ~name:"rates/stopwait-symbolic"
          (Staged.stage (fun () -> M.Symbolic.analyze sgraph));
        Test.make ~name:"fm/entailment"
          (Staged.stage
             (let cs = Tpn.constraints stpn in
              let e3 = Lin.var (Var.enabling "t3") in
              let rt =
                List.fold_left Lin.add Lin.zero
                  [ Lin.var (Var.firing "t5"); Lin.var (Var.firing "t6"); Lin.var (Var.firing "t8") ]
              in
              fun () -> Tpan_symbolic.Constraints.compare_exprs cs rt e3));
        Test.make ~name:"oracle/entailment-cached"
          (Staged.stage
             (* the same query as fm/entailment, answered from the memo *)
             (let o = Tpn.oracle stpn in
              let e3 = Lin.var (Var.enabling "t3") in
              let rt =
                List.fold_left Lin.add Lin.zero
                  [ Lin.var (Var.firing "t5"); Lin.var (Var.firing "t6"); Lin.var (Var.firing "t8") ]
              in
              ignore (O.compare_exprs o rt e3);
              fun () -> O.compare_exprs o rt e3));
        Test.make ~name:"oracle/preprocess"
          (Staged.stage
             (let cs = Tpn.constraints stpn in
              fun () -> O.make cs));
        Test.make ~name:"sim/stopwait-10k-ms"
          (Staged.stage (fun () -> Sim.run ~seed:1 ~horizon:(Q.of_int 10_000) ctpn));
        Test.make ~name:"par/map-fanout-64"
          (Staged.stage
             (* fork-join overhead of one pool dispatch over 64 tasks *)
             (let xs = List.init 64 Fun.id in
              fun () -> Tpan_par.Pool.map (fun x -> x * x) xs));
        Test.make ~name:"bigint/mul-256-digit"
          (Staged.stage
             (let a = B.pow (B.of_int 10) 255 in
              let b = B.sub (B.pow (B.of_int 10) 255) B.one in
              fun () -> B.mul a b));
        Test.make ~name:"poly/expand-(x+y)^8"
          (Staged.stage
             (let x = Poly.var (Var.param "bx") and y = Poly.var (Var.param "by") in
              let s = Poly.add x y in
              fun () -> Poly.pow s 8));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Format.printf "  %-38s %14s %8s@." "benchmark" "time/run" "r^2";
  let measured =
    List.map
      (fun (name, ols) ->
        let est = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
        let human t =
          if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
          else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
          else Printf.sprintf "%.0f ns" t
        in
        Format.printf "  %-38s %14s %8.4f@." name (human est) r2;
        (name, est, r2))
      rows
  in
  check "all benchmarks produced estimates"
    (List.for_all (fun (_, est, _) -> est > 0.) measured);
  measured

(* ---------------- BENCH_tpan.json ---------------- *)

let emit_json ~micro path =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escape s =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let num x = if Float.is_finite x then Printf.sprintf "%.6f" x else "null" in
  let sep xs f = List.iteri (fun i x -> if i > 0 then pr ",\n"; f x) xs in
  pr "{\n  \"figures\": [\n";
  sep (List.rev !figure_times) (fun (name, s, gc) ->
      pr
        "    {\"name\": \"%s\", \"seconds\": %s, \"gc\": {\"minor_words\": %s, \
         \"major_words\": %s, \"promoted_words\": %s, \"major_collections\": %d, \
         \"compactions\": %d}}"
        (escape name) (num s) (num gc.minor_words) (num gc.major_words)
        (num gc.promoted_words) gc.major_collections gc.compactions);
  pr "\n  ],\n  \"metrics\": [\n";
  sep
    (Tpan_obs.Metrics.snapshot ())
    (fun (name, v) ->
      match v with
      | Tpan_obs.Metrics.Counter_v n ->
        pr "    {\"name\": \"%s\", \"kind\": \"counter\", \"value\": %d}" (escape name) n
      | Tpan_obs.Metrics.Gauge_v x ->
        pr "    {\"name\": \"%s\", \"kind\": \"gauge\", \"value\": %s}" (escape name) (num x)
      | Tpan_obs.Metrics.Histogram_v h ->
        pr
          "    {\"name\": \"%s\", \"kind\": \"histogram\", \"count\": %d, \"sum\": %s, \
           \"p50\": %s, \"p90\": %s, \"p99\": %s, \"max\": %s}"
          (escape name) h.count (num h.sum) (num h.p50) (num h.p90) (num h.p99)
          (num h.max));
  pr "\n  ],\n  \"oracle\": [\n";
  sep (List.rev !oracle_records) (fun (model, (st : O.stats)) ->
      let reduction =
        if st.O.fm_runs = 0 then float_of_int st.O.baseline_fm_runs
        else float_of_int st.O.baseline_fm_runs /. float_of_int st.O.fm_runs
      in
      pr
        "    {\"model\": \"%s\", \"queries\": %d, \"trivial\": %d, \"hits\": %d, \
         \"misses\": %d, \"witness_refutations\": %d, \"fm_runs\": %d, \
         \"baseline_fm_runs\": %d, \"reduction_factor\": %s}"
        (escape model) st.O.queries st.O.trivial st.O.hits st.O.misses
        st.O.witness_refutations st.O.fm_runs st.O.baseline_fm_runs (num reduction));
  pr "\n  ],\n  \"parallel\": [\n";
  sep (List.rev !parallel_records) (fun r ->
      let t1, tn = r.wall and c1, cn = r.cpu and mw1, mwn = r.minor_words in
      pr
        "    {\"workload\": \"%s\", \"jobs\": %d, \"seconds_j1\": %s, \"seconds_jn\": %s, \
         \"cpu_seconds_j1\": %s, \"cpu_seconds_jn\": %s, \
         \"speedup\": %s, \"minor_words_j1\": %s, \"minor_words_jn\": %s}"
        (escape r.workload) r.jobs (num t1) (num tn) (num c1) (num cn)
        (num (if tn > 0. then t1 /. tn else Float.nan))
        (num mw1) (num mwn));
  pr "\n  ],\n  \"ext_exp\": [\n";
  sep
    (List.sort compare !exp_records)
    (fun (k, mw) -> pr "    {\"stages\": %d, \"minor_words\": %s}" k (num mw));
  pr "\n  ],\n  \"qeval\": [\n";
  sep (List.rev !qeval_records) (fun (point, terms, reps, median, lo, hi) ->
      pr
        "    {\"form\": \"abp-sym\", \"point\": \"%s\", \"terms\": %d, \"reps\": %d, \
         \"median_ms\": %s, \"min_ms\": %s, \"max_ms\": %s}"
        (escape point) terms reps (num median) (num lo) (num hi));
  pr "\n  ],\n  \"microbench\": [\n";
  sep micro (fun (name, ns, r2) ->
      pr "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}" (escape name)
        (num ns) (num r2));
  pr "\n  ],\n";
  pr
    "  \"serve_keepalive\": {\"close_rps\": %s, \"reuse_rps\": %s, \
     \"speedup_ratio\": %s},\n"
    (num !serve_keepalive_close_rps) (num !serve_keepalive_reuse_rps)
    (num !serve_keepalive_ratio);
  pr "  \"checks\": {\"passed\": %d, \"failed\": %d}\n}\n" !passes !failures;
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." path

(* ---------------- BENCH_history.ndjson ----------------

   One NDJSON line per harness run: the regression time series that
   [tpan bench-diff] gates. Append-only, so the file accumulates across
   runs; the [scale] field keeps quick CI rows distinguishable from full
   local rows. *)

let append_history path =
  let module J = Tpan_obs.Jsonv in
  let line =
    J.Obj
      [
        ("schema", J.Int 1);
        ("timestamp", J.Float (Unix.time ()));
        ("version", J.Str Tpan.Version.string);
        ("scale", J.Float bench_scale);
        ("quick", J.Bool quick);
        ( "figures",
          J.List
            (List.rev_map
               (fun (name, s, gc) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("seconds", J.Float s);
                     ("major_words", J.Float gc.major_words);
                     ("minor_words", J.Float gc.minor_words);
                   ])
               !figure_times) );
        ("checks", J.Obj [ ("passed", J.Int !passes); ("failed", J.Int !failures) ]);
      ]
  in
  match Tpan_obs.Ndjson.append path line with
  | Ok () -> Format.printf "appended %s@." path
  | Error msg -> Format.printf "warning: cannot append %s: %s@." path msg

let () =
  Format.printf "tpan reproduction harness — Razouk, Timed Petri Net performance expressions@.";
  if quick || bench_scale < 1.0 then
    Format.printf "(scaled run: quick=%b scale=%g — extension experiments shrunk)@." quick
      bench_scale;
  timed "FIG1" fig1;
  timed "FIG4" fig4;
  timed "FIG5" fig5;
  timed "FIG6" fig6;
  timed "FIG7" fig7;
  timed "FIG8" fig8;
  timed "THRPT" thrpt;
  timed "EXT-SWEEP" ext_sweep;
  timed "EXT-TIMEOUT" ext_timeout;
  timed "EXT-ABP" ext_abp;
  timed "EXT-SCHED" ext_sched;
  timed "EXT-LATENCY" ext_latency;
  timed "EXT-INTERVAL" ext_interval;
  timed "EXT-RING" ext_ring;
  timed "EXT-PIPE" ext_pipe;
  timed "EXT-WINDOW" ext_window;
  timed "EXT-SENS" ext_sens;
  timed "EXT-BATCH" ext_batch;
  timed "EXT-RANGE" ext_range;
  timed "EXT-EXP" ext_exp;
  timed "EXT-PAR" ext_par;
  timed "CHECK" check_diff;
  timed "ORACLE" oracle;
  timed "CHECKPOINT" checkpoint_overhead;
  timed "QEVAL" qeval;
  serve_cache ();
  timed "SERVE-KEEPALIVE" serve_keepalive;
  let micro = ref [] in
  timed "PERF" (fun () -> micro := perf ());
  emit_json ~micro:!micro "BENCH_tpan.json";
  append_history "BENCH_history.ndjson";
  Format.printf "@.====================@.";
  if !failures = 0 then Format.printf "ALL CHECKS PASSED@."
  else begin
    Format.printf "%d CHECK(S) FAILED@." !failures;
    exit 1
  end
