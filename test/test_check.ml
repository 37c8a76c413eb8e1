(* The three-way differential checker: sampling, generation, agreement on
   the paper's protocols, and — the point of the exercise — detection of a
   deliberately injected off-by-one, with a reproducer that round-trips
   through the DSL parser. *)

module Q = Tpan_mathkit.Q
module Var = Tpan_symbolic.Var
module Poly = Tpan_symbolic.Poly
module Rf = Tpan_symbolic.Ratfun
module Tpn = Tpan_core.Tpn
module Net = Tpan_petri.Net
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module M = Tpan_perf.Measures
module Rng = Tpan_sim.Rng
module SW = Tpan_protocols.Stopwait
module Abp = Tpan_protocols.Abp
module Parser = Tpan_dsl.Parser
module CK = Tpan_check.Check
module Gen = Tpan_check.Gen
module Sampler = Tpan_check.Sampler
module Shrink = Tpan_check.Shrink

(* Small but real: enough points/runs to exercise every leg while keeping
   the suite fast. *)
let cfg = CK.quick { CK.default with CK.samples = 2; runs = 4; seed = 1 }

(* ---------------- sampler ---------------- *)

let test_sampler_base_point () =
  let tpn = SW.symbolic () in
  match Sampler.base_point tpn with
  | None -> Alcotest.fail "stopwait constraints must have a model"
  | Some pt ->
    Alcotest.(check bool) "base point satisfies" true (Sampler.satisfies tpn pt);
    (* every symbolic variable is covered *)
    List.iter
      (fun v ->
        let name = Format.asprintf "%a" Var.pp v in
        Alcotest.(check bool) (name ^ " bound") true (List.mem_assoc name pt))
      (Sampler.vars tpn)

let test_sampler_draws_satisfy () =
  let tpn = SW.symbolic () in
  let rng = Rng.create ~seed:11 in
  for i = 1 to 20 do
    match Sampler.sample ~rng tpn with
    | None -> Alcotest.fail "sample must succeed when a base point exists"
    | Some pt ->
      if not (Sampler.satisfies tpn pt) then
        Alcotest.failf "draw %d violates the constraint system" i
  done

let test_sampler_infeasible () =
  (* a net whose constraint system is inconsistent has no points at all *)
  let b = Net.builder "infeasible" in
  let p = Net.add_place b ~init:1 "p" in
  let _ = Net.add_transition b ~name:"t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ] in
  let e_t = Tpan_symbolic.Linexpr.var (Var.enabling "t") in
  let tpn =
    Tpn.make
      ~constraints:
        (Tpan_symbolic.Constraints.of_list
           [ ("lo", `Gt, e_t, Tpan_symbolic.Linexpr.of_int 5);
             ("hi", `Gt, Tpan_symbolic.Linexpr.of_int 3, e_t) ])
      (Net.build b)
      [ ("t", Tpn.spec ~enabling:(Tpn.Sym (Var.enabling "t")) ()) ]
  in
  Alcotest.(check bool) "no base point" true (Sampler.base_point tpn = None)

(* ---------------- generator ---------------- *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let c1 = Gen.case ~seed and c2 = Gen.case ~seed in
      Alcotest.(check string) "description stable" c1.Gen.description c2.Gen.description;
      Alcotest.(check string) "delivery stable" c1.Gen.delivery c2.Gen.delivery;
      Alcotest.(check string) "net stable"
        (Tpan_dsl.Printer.to_string c1.Gen.tpn)
        (Tpan_dsl.Printer.to_string c2.Gen.tpn))
    [ 0; 1; 5; 42 ];
  (* the knobs actually vary across seeds *)
  let shapes =
    List.sort_uniq compare
      (List.init 12 (fun seed -> (Gen.case ~seed).Gen.description))
  in
  Alcotest.(check bool) "seeds explore distinct shapes" true (List.length shapes > 1)

let test_gen_cases_analyzable () =
  (* every generated net must make it through symbolic TRG construction —
     the generator's whole contract *)
  List.iter
    (fun seed ->
      let c = Gen.case ~seed in
      let g = SG.build c.Gen.tpn in
      let res = M.Symbolic.analyze g in
      let thr = M.Symbolic.throughput res g c.Gen.delivery in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d [%s] has nonzero throughput" seed c.Gen.description)
        false (Rf.is_zero thr))
    [ 0; 1; 2; 3; 4; 5 ]

(* ---------------- three-way agreement ---------------- *)

let agree name delivery tpn =
  match CK.check_tpn ~config:cfg ~name ~delivery tpn with
  | Error e -> Alcotest.fail (Tpan_core.Error.to_string e)
  | Ok o ->
    Alcotest.(check bool) (name ^ " ok") true (CK.ok o);
    Alcotest.(check int) (name ^ " all points agreed") o.CK.points o.CK.agreed;
    Alcotest.(check bool) (name ^ " evaluated something") true (o.CK.points > 0)

let test_agree_stopwait () = agree "stopwait" "t7" (SW.concrete SW.paper_params)
let test_agree_stopwait_sym () = agree "stopwait-sym" "t7" (SW.symbolic ())
let test_agree_abp () =
  agree "abp" (List.hd Abp.deliveries) (Abp.concrete Abp.default_params)

let test_fuzz_deterministic () =
  let fuzz_cfg = { cfg with CK.samples = 1; runs = 2 } in
  let run jobs = CK.fuzz ~config:fuzz_cfg ~jobs ~cases:3 () in
  let digest results =
    List.map
      (fun (c, r) ->
        ( c.Gen.description,
          match r with
          | Ok o -> Printf.sprintf "ok=%b points=%d" (CK.ok o) o.CK.points
          | Error e -> "error: " ^ Tpan_core.Error.to_string e ))
      results
  in
  let d1 = digest (run 1) in
  Alcotest.(check (list (pair string string))) "independent of jobs" d1 (digest (run 4));
  Alcotest.(check (list (pair string string))) "rerun identical" d1 (digest (run 1));
  List.iter
    (fun (desc, s) ->
      if not (String.length s >= 7 && String.sub s 0 7 = "ok=true") then
        Alcotest.failf "generated net [%s] did not agree: %s" desc s)
    d1

(* ---------------- injected bug + reproducer ---------------- *)

let test_injected_bug_caught () =
  let tpn = SW.symbolic () in
  let g = SG.build tpn in
  let res = M.Symbolic.analyze g in
  let thr = M.Symbolic.throughput res g "t7" in
  (* the acceptance scenario: an off-by-one in the E(t3) delay constant *)
  let buggy =
    Rf.subst
      (fun v ->
        if Var.equal v (Var.enabling "t3") then
          Some (Poly.add (Poly.var v) (Poly.const Q.one))
        else None)
      thr
  in
  match CK.check_tpn ~config:cfg ~expr:buggy ~name:"buggy" ~delivery:"t7" tpn with
  | Error e -> Alcotest.fail (Tpan_core.Error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "off-by-one detected" false (CK.ok o);
    let f = List.hd o.CK.failures in
    (* the shrinker's reproducer parses back through the DSL front end
       into a fully concrete net that the real pipeline agrees on — the
       witness blames the injected expression, not the pipeline *)
    let parsed = Parser.parse_string f.CK.reproducer in
    Alcotest.(check bool) "reproducer is concrete" true (Tpn.is_concrete parsed);
    Alcotest.(check bool) "delivery transition survives" true
      (List.exists
         (fun t -> Net.trans_name (Tpn.net parsed) t = "t7")
         (Net.transitions (Tpn.net parsed)));
    (match CK.check_tpn ~config:cfg ~name:"reproducer" ~delivery:"t7" parsed with
     | Ok o' -> Alcotest.(check bool) "pipeline agrees on the reproducer" true (CK.ok o')
     | Error e -> Alcotest.fail (Tpan_core.Error.to_string e))

let test_facade_check_source () =
  match Tpan.Checker.check_source ~config:cfg (Tpan.Query.Model { name = "stopwait"; params = [] }) with
  | Ok o ->
    Alcotest.(check bool) "builtin stopwait ok" true (CK.ok o);
    Alcotest.(check bool) "named after the model" true (o.CK.name = "stopwait")
  | Error e -> Alcotest.fail (Tpan_core.Error.to_string e)

(* A lossy one-time setup before a lossy data loop: the decision graph is
   not strongly connected, so the only sampled point is skipped. A check
   that evaluated nothing must not pass. *)
let setup_tpn =
  {|net setup
place idle init 1
place conn
place data
trans req_ok   { in idle; out conn; fire 1; freq 9 }
trans req_lost { in idle; out idle; fire 5; freq 1 }
trans send     { in conn; out data; fire 2 }
trans ok       { in data; out conn; fire 3; freq 19 }
trans lost     { in data; out conn; fire 10; freq 1 }
|}

let test_vacuous_check_fails () =
  match
    CK.check_tpn ~config:cfg ~name:"setup" ~delivery:"send" (Parser.parse_string setup_tpn)
  with
  | Error e -> Alcotest.fail (Tpan_core.Error.to_string e)
  | Ok o ->
    Alcotest.(check int) "no point agreed" 0 o.CK.agreed;
    Alcotest.(check int) "no failures" 0 (List.length o.CK.failures);
    Alcotest.(check bool) "the point was skipped" true (o.CK.skipped <> []);
    Alcotest.(check bool) "not ok" false (CK.ok o)

let suite =
  ( "check",
    [
      Alcotest.test_case "sampler: base point" `Quick test_sampler_base_point;
      Alcotest.test_case "sampler: draws satisfy constraints" `Quick test_sampler_draws_satisfy;
      Alcotest.test_case "sampler: infeasible system" `Quick test_sampler_infeasible;
      Alcotest.test_case "generator determinism" `Quick test_gen_deterministic;
      Alcotest.test_case "generated nets analyzable" `Quick test_gen_cases_analyzable;
      Alcotest.test_case "agreement: stopwait (concrete)" `Slow test_agree_stopwait;
      Alcotest.test_case "agreement: stopwait (symbolic)" `Slow test_agree_stopwait_sym;
      Alcotest.test_case "agreement: abp" `Slow test_agree_abp;
      Alcotest.test_case "fuzz determinism across jobs" `Slow test_fuzz_deterministic;
      Alcotest.test_case "injected off-by-one caught, reproducer parses" `Slow
        test_injected_bug_caught;
      Alcotest.test_case "facade check_source" `Slow test_facade_check_source;
      Alcotest.test_case "no agreed point is not ok" `Quick test_vacuous_check_fails;
    ] )
