module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module Sem = Tpan_core.Semantics
module Error = Tpan_core.Error
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures
module Markov = Tpan_perf.Markov
module Rf = Tpan_symbolic.Ratfun
module Sim = Tpan_sim.Simulator
module Rng = Tpan_sim.Rng
module J = Tpan_obs.Jsonv

type config = {
  samples : int;
  seed : int;
  runs : int;
  horizon_cycles : int;
  max_states : int option;
  rel_tol : float;
  ci_sigma : float;
  sim_slack : float;
  shrink : bool;
  deadline : float option;
}

let default =
  {
    samples = 5;
    seed = 1;
    runs = 6;
    horizon_cycles = 80;
    max_states = None;
    rel_tol = 1e-9;
    ci_sigma = 4.5;
    sim_slack = 0.04;
    shrink = true;
    deadline = None;
  }

let quick cfg =
  { cfg with samples = min cfg.samples 3; runs = min cfg.runs 4; horizon_cycles = min cfg.horizon_cycles 40 }

type disagreement =
  | Exact_vs_numeric of { exact : float; numeric : float; rel_err : float }
  | Exact_vs_sim of { exact : float; mean : float; lo : float; hi : float }

type triple = {
  point : Sampler.point;
  exact : Q.t;
  numeric : float;
  sim : Sim.estimate;
}

type failure = { disagreement : disagreement; triple : triple; reproducer : string }

type outcome = {
  name : string;
  points : int;
  agreed : int;
  failures : failure list;
  skipped : (string * string) list;
}

let ok o = o.failures = [] && o.agreed > 0

let m_points = Tpan_obs.Metrics.counter "tpan_check_points_total"
let m_disagreements = Tpan_obs.Metrics.counter "tpan_check_disagreements_total"
let m_skipped = Tpan_obs.Metrics.counter "tpan_check_skipped_points_total"

(* lib/check sits below the facade, so exceptions are classified with
   the perf layer's [Errors.of_exn] rather than [Tpan.Error.of_exn]. *)
let classify_exn e =
  match Tpan_perf.Errors.of_exn e with
  | Some err -> err
  | None -> (
    match e with
    | Division_by_zero -> Error.Unsupported "division by zero during evaluation"
    | Invalid_argument msg -> Error.Invalid_input msg
    | e -> raise e)

let describe_exn e =
  match Tpan_perf.Errors.of_exn e with
  | Some err -> Error.to_string err
  | None -> (
    match e with
    | Division_by_zero -> "division by zero during evaluation"
    | Failure msg | Invalid_argument msg -> msg
    | Not_found -> "unknown transition or unbound variable"
    | e -> Printexc.to_string e)

(* One evaluation of all three legs at a point. [expr] is the symbolic
   closed form when the net is symbolic (or an injected override);
   concrete nets take their exact value from the ℚ rate solution. *)
let eval_triple cfg ~expr ~delivery ~sim_seed tpn point =
  try
    let bound = if point = [] then tpn else Tpn.bind_times tpn point in
    let g = CG.build ?max_states:cfg.max_states bound in
    let res = M.Concrete.analyze g in
    let exact =
      match expr with
      | Some e -> M.Symbolic.eval_at e point
      | None -> M.Concrete.throughput res g delivery
    in
    let t = M.transition bound delivery in
    let numeric =
      Markov.throughput
        ~probs:(fun e -> Q.to_float e.DG.prob)
        ~delays:(fun e -> Q.to_float e.DG.delay)
        res.Rates.dg
        ~count:(fun e -> List.length (List.filter (( = ) t) e.DG.completed))
    in
    (* Scale the simulated span to the expected delivery period, so every
       point sees the same number of regeneration cycles regardless of how
       the sampler stretched the delays. *)
    let exact_f = Q.to_float exact in
    let period = if exact_f > 0. then 1. /. exact_f else 1000. in
    let horizon = Q.of_int (max 1 (int_of_float (ceil (float_of_int cfg.horizon_cycles *. period)))) in
    let warmup = Q.of_int (max 1 (int_of_float (ceil (8. *. period)))) in
    let sim =
      Sim.run_many ~seed:sim_seed ~warmup ~runs:cfg.runs ~horizon bound (fun s ->
          Sim.throughput s t)
    in
    Ok { point; exact; numeric; sim }
  with
  | Tpan_obs.Cancel.Cancelled _ as e ->
    (* a cancelled case is not a skipped point: let the fuzz wrapper
       (or the CLI) turn it into Deadline_exceeded *)
    raise e
  | e -> Result.error (describe_exn e)

let disagreement cfg t =
  let exact = Q.to_float t.exact in
  let scale = Float.max (Float.abs exact) 1e-300 in
  let rel_err = Float.abs (exact -. t.numeric) /. scale in
  if rel_err > cfg.rel_tol then Some (Exact_vs_numeric { exact; numeric = t.numeric; rel_err })
  else
    (* The estimated standard error is unreliable at small replication
       counts (2 runs that both land low produce a tiny s.e. and a false
       alarm), so the interval also gets a floor of 2/sqrt(N) relative,
       N being the expected delivery count over all replications — the
       scale of genuine Monte-Carlo noise regardless of how well the
       per-run spread was estimated. *)
    let n_est = float_of_int (max 1 (cfg.horizon_cycles * cfg.runs)) in
    let stat_floor = 2.0 *. scale /. Float.sqrt n_est in
    let slack =
      (cfg.ci_sigma *. t.sim.Sim.std_error) +. (cfg.sim_slack *. scale) +. stat_floor
    in
    let lo = t.sim.Sim.mean -. slack and hi = t.sim.Sim.mean +. slack in
    if exact < lo || exact > hi then
      Some (Exact_vs_sim { exact; mean = t.sim.Sim.mean; lo; hi })
    else None

(* The shrinker's oracle: does the candidate (net, point) still produce
   some disagreement? With an injected [expr] the expression's symbols
   must survive, so the net structure is pinned and only the point
   shrinks; otherwise each candidate net gets a fresh symbolic analysis. *)
let still_fails cfg ?expr ~delivery () tpn point =
  let expr =
    match expr with
    | Some _ -> expr
    | None ->
      if Tpn.is_concrete tpn then None
      else (
        try
          let sg = SG.build ?max_states:cfg.max_states tpn in
          let sres = M.Symbolic.analyze sg in
          Some (M.Symbolic.throughput sres sg delivery)
        with
        | Tpan_obs.Cancel.Cancelled _ as e -> raise e
        | _ -> raise Exit)
  in
  match eval_triple cfg ~expr ~delivery ~sim_seed:cfg.seed tpn point with
  | Ok t -> disagreement cfg t <> None
  | Error _ -> false

let still_fails cfg ?expr ~delivery () tpn point =
  try still_fails cfg ?expr ~delivery () tpn point with Exit -> false

let check_tpn ?(config = default) ?expr ~name ~delivery tpn =
  let symbolic = not (Tpn.is_concrete tpn) in
  match
    match expr with
    | Some e -> Ok (Some e)
    | None ->
      if not symbolic then Ok None
      else (
        try
          let sg = SG.build ?max_states:config.max_states tpn in
          let sres = M.Symbolic.analyze sg in
          Ok (Some (M.Symbolic.throughput sres sg delivery))
        with e -> Result.error (classify_exn e))
  with
  | Error e -> Result.error e
  | Ok expr_opt -> (
    let structure_pinned = expr <> None in
    let rng = Rng.create ~seed:config.seed in
    let seed_rng = Rng.create ~seed:(config.seed + 0x9e37) in
    let points =
      if symbolic then
        List.init config.samples (fun i ->
            (Printf.sprintf "p%d" i, Sampler.sample ~rng tpn, 1 + Rng.int seed_rng 0x3fffffff))
      else [ ("p0", Some [], 1 + Rng.int seed_rng 0x3fffffff) ]
    in
    match List.exists (fun (_, p, _) -> p = None) points with
    | true -> Result.error (Error.Invalid_input "constraint system has no model")
    | false ->
      let agreed = ref 0 and failures = ref [] and skipped = ref [] in
      List.iter
        (fun (label, point, sim_seed) ->
          let point = Option.get point in
          Tpan_obs.Metrics.Counter.incr m_points;
          match eval_triple config ~expr:expr_opt ~delivery ~sim_seed tpn point with
          | Error reason ->
            Tpan_obs.Metrics.Counter.incr m_skipped;
            skipped := (label, reason) :: !skipped
          | Ok t -> (
            match disagreement config t with
            | None -> incr agreed
            | Some d ->
              Tpan_obs.Metrics.Counter.incr m_disagreements;
              let reproducer =
                if not config.shrink then Shrink.reproducer tpn point
                else
                  let tpn', point' =
                    Shrink.minimize ~structure:(not structure_pinned)
                      ~still_fails:(still_fails config ?expr ~delivery ())
                      tpn point
                  in
                  Shrink.reproducer tpn' point'
              in
              failures := { disagreement = d; triple = t; reproducer } :: !failures))
        points;
      Ok
        {
          name;
          points = List.length points;
          agreed = !agreed;
          failures = List.rev !failures;
          skipped = List.rev !skipped;
        })

let check_case ?config (c : Gen.case) =
  check_tpn ?config ~name:(Printf.sprintf "gen%d" c.Gen.seed) ~delivery:c.Gen.delivery
    c.Gen.tpn

let fuzz ?(config = default) ?jobs ~cases () =
  List.init cases (fun i -> config.seed + i)
  |> Tpan_par.Pool.map ?jobs (fun seed ->
         let c = Gen.case ~seed in
         let run () = check_case ~config:{ config with seed } c in
         let result =
           match config.deadline with
           | None -> run ()
           | Some budget -> (
             (* per-case budget: a pathological generated net aborts and
                is recorded, instead of hanging the whole fuzz run. The
                case context keeps the surrounding trace id so its dump
                and ledger rows stay correlated with the run. *)
             let ctx =
               Tpan_obs.Context.make
                 ?trace_id:(Tpan_obs.Context.trace_id ())
                 ~deadline:budget ()
             in
             try Tpan_obs.Context.with_ctx ctx run
             with Tpan_obs.Cancel.Cancelled reason ->
               Result.error
                 (Error.Deadline_exceeded
                    (Tpan_obs.Cancel.reason_to_string reason)))
         in
         (c, result))

(* renderers *)

let pp_float fmt f = Format.fprintf fmt "%.9g" f

let pp_disagreement fmt = function
  | Exact_vs_numeric { exact; numeric; rel_err } ->
    Format.fprintf fmt "exact %a vs numeric %a (rel err %.2e)" pp_float exact pp_float
      numeric rel_err
  | Exact_vs_sim { exact; mean; lo; hi } ->
    Format.fprintf fmt "exact %a outside sim interval [%a, %a] (mean %a)" pp_float exact
      pp_float lo pp_float hi pp_float mean

let pp_point fmt point =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
    (fun fmt (n, q) -> Format.fprintf fmt "%s=%s" n (Q.to_string q))
    fmt point

let pp_outcome fmt o =
  Format.fprintf fmt "@[<v>%s: %d/%d points agree (exact = numeric = sim)" o.name o.agreed
    o.points;
  List.iter
    (fun (label, reason) -> Format.fprintf fmt "@,  %s skipped: %s" label reason)
    o.skipped;
  List.iter
    (fun f ->
      Format.fprintf fmt "@,  DISAGREEMENT %a@,  at %a@,  reproducer:@,@[<v 2>  %a@]"
        pp_disagreement f.disagreement pp_point f.triple.point
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
        (String.split_on_char '\n' f.reproducer))
    o.failures;
  Format.fprintf fmt "@]"

let estimate_to_json (e : Sim.estimate) =
  let lo, hi = e.Sim.ci95 in
  J.Obj
    [
      ("mean", J.Float e.Sim.mean);
      ("std_error", J.Float e.Sim.std_error);
      ("ci95_lo", J.Float lo);
      ("ci95_hi", J.Float hi);
      ("runs", J.Int e.Sim.runs);
    ]

let disagreement_to_json = function
  | Exact_vs_numeric { exact; numeric; rel_err } ->
    J.Obj
      [
        ("kind", J.Str "exact_vs_numeric");
        ("exact", J.Float exact);
        ("numeric", J.Float numeric);
        ("rel_err", J.Float rel_err);
      ]
  | Exact_vs_sim { exact; mean; lo; hi } ->
    J.Obj
      [
        ("kind", J.Str "exact_vs_sim");
        ("exact", J.Float exact);
        ("mean", J.Float mean);
        ("lo", J.Float lo);
        ("hi", J.Float hi);
      ]

let outcome_fields o =
  [
    ("name", J.Str o.name);
    ("points", J.Int o.points);
    ("agreed", J.Int o.agreed);
    ( "failures",
      J.List
        (List.map
           (fun f ->
             J.Obj
               [
                 ("disagreement", disagreement_to_json f.disagreement);
                 ( "point",
                   J.Obj (List.map (fun (n, q) -> (n, J.Str (Q.to_string q))) f.triple.point)
                 );
                 ("exact", J.Str (Q.to_string f.triple.exact));
                 ("numeric", J.Float f.triple.numeric);
                 ("sim", estimate_to_json f.triple.sim);
                 ("reproducer", J.Str f.reproducer);
               ])
           o.failures) );
    ( "skipped",
      J.List
        (List.map
           (fun (label, reason) ->
             J.Obj [ ("point", J.Str label); ("reason", J.Str reason) ])
           o.skipped) );
    ("ok", J.Bool (ok o));
  ]

let outcome_to_json o =
  J.Obj (("schema", J.Int 1) :: ("kind", J.Str "check") :: outcome_fields o)
