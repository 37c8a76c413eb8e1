(* Validation of the Symbolic Timed Reachability Graph against the paper's
   Figure 6 (symbolic states), Figure 7 (constraints used), and the
   insufficient-constraint diagnosis of section 3. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Var = Tpan_symbolic.Var
module Lin = Tpan_symbolic.Linexpr
module Rf = Tpan_symbolic.Ratfun
module C = Tpan_symbolic.Constraints
module Tpn = Tpan_core.Tpn
module Sem = Tpan_core.Semantics
module SG = Tpan_core.Symbolic
module CG = Tpan_core.Concrete
module SW = Tpan_protocols.Stopwait

let graph = lazy (SG.build (SW.symbolic ()))

let e3 = Lin.var (Var.enabling "t3")
let f name = Lin.var (Var.firing name)
let lin = Alcotest.testable Lin.pp Lin.equal

let test_figure6_shape () =
  let g = Lazy.force graph in
  Alcotest.(check int) "18 states (Figure 6)" 18 (SG.Graph.num_states g);
  Alcotest.(check int) "20 edges" 20 (SG.Graph.num_edges g);
  Alcotest.(check int) "2 branching nodes" 2 (List.length (Sem.branching_states g))

let test_figure6_symbolic_rets () =
  let g = Lazy.force graph in
  let t3 = Net.trans_of_name (Tpn.net g.Sem.tpn) "t3" in
  let rets =
    Array.to_list g.Sem.states
    |> List.filter_map (fun st ->
           let r = st.Sem.ret.(t3) in
           if Lin.equal r Lin.zero then None else Some r)
    |> List.sort_uniq Lin.compare
  in
  (* Figure 6b: E(t3), E(t3)-F(t4), E(t3)-F(t5), E(t3)-F(t5)-F(t6),
     E(t3)-F(t5)-F(t6)-F(t8), E(t3)-F(t5)-F(t6)-F(t9) *)
  let expected =
    [
      e3;
      Lin.sub e3 (f "t4");
      Lin.sub e3 (f "t5");
      Lin.sub e3 (Lin.add (f "t5") (f "t6"));
      Lin.sub e3 (Lin.add (f "t5") (Lin.add (f "t6") (f "t8")));
      Lin.sub e3 (Lin.add (f "t5") (Lin.add (f "t6") (f "t9")));
    ]
  in
  Alcotest.(check int) "six distinct symbolic residues" 6 (List.length rets);
  List.iter
    (fun want ->
      Alcotest.(check bool)
        (Format.asprintf "residue %a present" Lin.pp want)
        true
        (List.exists (Lin.equal want) rets))
    expected

let test_figure6_probabilities () =
  let g = Lazy.force graph in
  let fr name = Tpan_symbolic.Poly.var (Var.frequency name) in
  let expect_pkt = Rf.make (fr "t4") (Tpan_symbolic.Poly.add (fr "t4") (fr "t5")) in
  let found = ref false in
  Array.iter
    (fun edges ->
      List.iter
        (fun (e : SG.Graph.edge) -> if Rf.equal e.Sem.prob expect_pkt then found := true)
        edges)
    g.Sem.out;
  Alcotest.(check bool) "f(t4)/(f(t4)+f(t5)) appears" true !found;
  (* probabilities at each decision node sum to 1 symbolically *)
  List.iter
    (fun i ->
      let total =
        List.fold_left (fun acc (e : SG.Graph.edge) -> Rf.add acc e.Sem.prob) Rf.zero g.Sem.out.(i)
      in
      Alcotest.(check bool) "sums to one" true (Rf.equal Rf.one total))
    (Sem.branching_states g)

let test_figure7_constraint_audit () =
  let g = Lazy.force graph in
  let audit = SG.constraint_audit g in
  (* Figure 7 lists five resolutions; collect the multiset of label sets *)
  let label_sets = List.map (fun (_, _, ls) -> List.sort compare ls) audit in
  let count ls = List.length (List.filter (( = ) ls) label_sets) in
  Alcotest.(check int) "five constrained minima (Figure 7)" 5 (List.length audit);
  Alcotest.(check int) "three uses of (1) alone" 3 (count [ "(1)" ]);
  Alcotest.(check int) "one use of (1)+(3)" 1 (count [ "(1)"; "(3)" ]);
  Alcotest.(check int) "one use of (1)+(4)" 1 (count [ "(1)"; "(4)" ])

let builtin name = (Option.get (Tpan.Models.find name)).Tpan.Models.make []

(* The full audit of every symbolic builtin: (src, dst, labels), 0-based
   state indices. *)
let test_audit_pinned () =
  let rtt = List.map (fun (s, d) -> (s, d, [ "(rtt)" ])) in
  let expected =
    [
      ( "stopwait-sym",
        [
          (3, 5, [ "(1)"; "(3)" ]); (4, 6, [ "(1)" ]); (8, 10, [ "(1)" ]); (11, 13, [ "(1)" ]);
          (12, 14, [ "(1)"; "(4)" ]);
        ] );
      ( "abp-sym",
        rtt
          [
            (3, 5); (4, 6); (8, 10); (11, 13); (12, 14); (24, 28); (25, 29); (26, 30); (27, 31);
            (33, 36); (34, 10); (37, 39); (38, 40); (47, 49); (48, 50); (51, 36);
          ] );
      ("handshake-sym", rtt [ (3, 5); (4, 6); (8, 10); (11, 13); (12, 14) ]);
      ("scheduler-sym", []);
      ("ring-sym", []);
    ]
  in
  List.iter
    (fun (name, want) ->
      let audit = SG.constraint_audit (SG.build (builtin name)) in
      Alcotest.(check (list (triple int int (list string)))) name want audit)
    expected

(* The labels of an audited edge name constraints that, alone, order the
   edge's delay below every other remaining time of its source state. *)
let test_audit_sufficient () =
  for seed = 100000 to 100199 do
    let tpn = (Tpan_check.Gen.case ~seed).tpn in
    let g = SG.build tpn in
    let declared = C.constraints (Tpn.constraints tpn) in
    List.iter
      (fun (src, dst, labels) ->
        let e = List.find (fun (e : SG.Graph.edge) -> e.dst = dst) g.out.(src) in
        let core = C.of_list (List.filter (fun (l, _, _, _) -> List.mem l labels) declared) in
        List.iter
          (fun x ->
            Alcotest.(check bool)
              (Format.asprintf "seed %d, %d -> %d: %a <= %a" seed src dst Lin.pp e.delay Lin.pp x)
              true
              (C.entails core `Le e.delay x))
          (let st = g.states.(src) in
           List.filter (fun x -> not (Lin.equal x Lin.zero)) (Array.to_list st.ret @ Array.to_list st.rft)))
      (SG.constraint_audit g)
  done

(* A cold build runs Fourier–Motzkin only through the net's oracle: every
   feasibility check it makes is one the oracle counts. *)
let test_build_fm_through_oracle () =
  let fm_checks () = Tpan_obs.Metrics.counter_value "mathkit.fm.feasible_checks" in
  let cold name tpn =
    let before = fm_checks () in
    ignore (SG.build tpn);
    Alcotest.(check int) (name ^ ": FM checks = oracle FM runs")
      (Tpan_symbolic.Oracle.stats (Tpn.oracle tpn)).fm_runs
      (fm_checks () - before)
  in
  List.iter
    (fun name -> cold name (builtin name))
    [ "stopwait-sym"; "abp-sym"; "handshake-sym"; "scheduler-sym"; "ring-sym" ];
  for seed = 100000 to 100049 do
    cold (string_of_int seed) (Tpan_check.Gen.case ~seed).tpn
  done

let test_insufficient_constraints_diagnosis () =
  (* Dropping constraint (1) makes state 4 unresolvable: F(t5) vs E(t3). *)
  let weak =
    C.of_list
      [ ("(3)", `Eq, f "t4", f "t5"); ("(4)", `Eq, f "t9", f "t8") ]
  in
  let tpn =
    Tpn.make ~constraints:weak (SW.net ())
      (let s = Tpn.spec in
       [
         ("t1", s ~firing:(Tpn.sym_firing "t1") ());
         ("t2", s ~firing:(Tpn.sym_firing "t2") ());
         ("t3", s ~enabling:(Tpn.sym_enabling "t3") ~firing:(Tpn.sym_firing "t3")
              ~frequency:(Tpn.Freq Q.zero) ());
         ("t4", s ~firing:(Tpn.sym_firing "t4") ());
         ("t5", s ~firing:(Tpn.sym_firing "t5") ());
         ("t6", s ~firing:(Tpn.sym_firing "t6") ());
         ("t7", s ~firing:(Tpn.sym_firing "t7") ());
         ("t8", s ~firing:(Tpn.sym_firing "t8") ());
         ("t9", s ~firing:(Tpn.sym_firing "t9") ());
       ])
  in
  match SG.build tpn with
  | _ -> Alcotest.fail "expected Insufficient"
  | exception SG.Insufficient { lhs; rhs; hint } ->
    (* the first unresolvable comparison involves E(t3) against a firing time *)
    let mentions e v = List.exists (Var.equal v) (Lin.vars e) in
    Alcotest.(check bool) "E(t3) involved" true
      (mentions lhs (Var.enabling "t3") || mentions rhs (Var.enabling "t3"));
    Alcotest.(check bool) "hint not empty" true (String.length hint > 0)

let test_symbolic_matches_concrete_at_paper_point () =
  (* Substituting the paper's times into every symbolic edge delay must
     reproduce the concrete graph's delays (state spaces are isomorphic;
     both are BFS-ordered, so indices align). *)
  let sg = Lazy.force graph in
  let cg = CG.build (SW.concrete SW.paper_params) in
  Alcotest.(check int) "same state count" (CG.Graph.num_states cg) (SG.Graph.num_states sg);
  let p = SW.paper_params in
  let env v =
    match Var.name v with
    | "E(t3)" -> p.SW.timeout
    | "F(t1)" | "F(t2)" | "F(t3)" -> p.SW.send_time
    | "F(t4)" | "F(t5)" | "F(t8)" | "F(t9)" -> p.SW.transit_time
    | "F(t6)" | "F(t7)" -> p.SW.process_time
    | _ -> Alcotest.fail ("unexpected var " ^ Var.name v)
  in
  Array.iteri
    (fun i sedges ->
      let cedges = cg.Sem.out.(i) in
      Alcotest.(check int) "same out-degree" (List.length cedges) (List.length sedges);
      List.iter2
        (fun (se : SG.Graph.edge) (ce : CG.Graph.edge) ->
          Alcotest.(check int) "same destination" ce.Sem.dst se.Sem.dst;
          Alcotest.(check bool) "delay matches" true
            (Q.equal ce.Sem.delay (Lin.eval env se.Sem.delay)))
        sedges cedges)
    sg.Sem.out

let test_normalize_collapses_entailed_zero () =
  (* if constraints force a symbolic time to equal zero, states normalize *)
  let cs = C.of_list [ ("z", `Eq, f "u", Lin.zero) ] in
  let b = Net.builder "norm" in
  let p = Net.add_place b ~init:1 "p" in
  let q_ = Net.add_place b "q" in
  let _ = Net.add_transition b ~name:"u" ~inputs:[ (p, 1) ] ~outputs:[ (q_, 1) ] in
  let tpn = Tpn.make ~constraints:cs (Net.build b) [ ("u", Tpn.spec ~firing:(Tpn.sym_firing "u") ()) ] in
  let g = SG.build tpn in
  (* F(u) = 0 entailed: the firing completes in the decision step itself *)
  Alcotest.(check int) "two states only" 2 (SG.Graph.num_states g);
  Alcotest.check lin "delay is zero" Lin.zero
    (List.fold_left (fun acc (e : SG.Graph.edge) -> Lin.add acc e.Sem.delay) Lin.zero
       (List.concat_map Fun.id (Array.to_list g.Sem.out)))

let suite =
  ( "trg_symbolic",
    [
      Alcotest.test_case "figure 6: shape" `Quick test_figure6_shape;
      Alcotest.test_case "figure 6: symbolic RET residues" `Quick test_figure6_symbolic_rets;
      Alcotest.test_case "figure 6: symbolic probabilities" `Quick test_figure6_probabilities;
      Alcotest.test_case "figure 7: constraint audit" `Quick test_figure7_constraint_audit;
      Alcotest.test_case "insufficient constraints diagnosed" `Quick test_insufficient_constraints_diagnosis;
      Alcotest.test_case "symbolic = concrete at paper point" `Quick test_symbolic_matches_concrete_at_paper_point;
      Alcotest.test_case "entailed-zero normalization" `Quick test_normalize_collapses_entailed_zero;
      Alcotest.test_case "figure 7: audit of every builtin" `Quick test_audit_pinned;
      Alcotest.test_case "figure 7: audit cores suffice" `Quick test_audit_sufficient;
      Alcotest.test_case "build runs FM only via the oracle" `Quick test_build_fm_through_oracle;
    ] )
