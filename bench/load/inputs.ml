(* The five workloads' inputs, generated from the seed: evaluation
   points, sweep grids, generated nets and CLI net files, with the
   expected answer for each. The server only ever sees the request
   bodies built here. *)

module Q = Tpan_mathkit.Q
module J = Tpan_obs.Jsonv
module M = Tpan_perf.Measures
module Tpn = Tpan_core.Tpn

let max_states = 100_000 (* the [tpan serve] and [tpan analyze] default *)

type point = (string * Q.t) list

type net =
  | Builtin of string
  | Source of { src : string; tpn : Tpn.t }  (** inline .tpn text and its parse *)

type item =
  | Eval of { net : net; transition : string; point : point; body : string }
  | Sweep of {
      model : string;
      transition : string;
      bindings : point;
      axis : Tpan_perf.Sweep.axis;
      body : string;
    }
  | Analyze of {
      model : string;
      params : point;
      src : string;
      file : string;
      transition : string;
      expected : string;  (** stdout of [tpan analyze --json] without its trace_id line *)
    }

let path_of = function Eval _ -> "/eval" | Sweep _ -> "/sweep" | Analyze _ -> "/analyze"

let body_of = function
  | Eval e -> e.body
  | Sweep s -> s.body
  | Analyze a ->
    J.to_string
      (J.Obj [ ("net", J.Str a.src); ("throughputs", J.List [ J.Str a.transition ]) ])

type t = {
  name : string;
  conns : int;  (** keep-alive connections; 0 for the CLI workload *)
  prime : item list;  (** sent during set-up, before any timing *)
  items : item array;  (** warm-up requests first, then the timed ones *)
  warmup : int;
}

(* ----- numbers ----- *)

(* A decimal in [lo, hi] hundredths, written with one or two decimals
   at random ("106.7", "13.25"). *)
let cents rng lo hi =
  if Random.State.bool rng then lo + Random.State.int rng (hi - lo + 1)
  else 10 * ((lo + 9) / 10 + Random.State.int rng (max 1 ((hi - lo) / 10)))

let render_cents c =
  if c mod 10 = 0 then Printf.sprintf "%d.%d" (c / 100) (c mod 100 / 10)
  else Printf.sprintf "%d.%02d" (c / 100) (c mod 100)

let int_in rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* A point as (name, decimal text); the JSON body carries the text, the
   checks use the exact rational it denotes. *)
let exact pt = List.map (fun (k, s) -> (k, Q.of_decimal_string s)) pt
let point_json pt = J.Obj (List.map (fun (k, s) -> (k, J.Str s)) pt)

(* A schema-2 envelope as [tpan serve] and [tpan analyze --json] print
   it, trace id aside: the one field that differs on every run. *)
let envelope ~kind ~net_hash fields =
  J.to_string_hum
    (J.Obj
       (("schema", J.Int 2)
       :: ("kind", J.Str kind)
       :: ("trace_id", J.Null)
       :: ("net_hash", J.Str net_hash)
       :: ("exit_code", J.Int 0)
       :: fields))
  ^ "\n"

let without_trace_id doc =
  String.concat "\n"
    (List.filter
       (fun l -> not (String.starts_with ~prefix:"  \"trace_id\": " l))
       (String.split_on_char '\n' doc))

(* ----- the three symbolic builtins -----

   Each draw respects the net's timing constraints by construction (the
   timeout exceeds the sum it must dominate; conflicting alternatives
   share their delay) and is checked with [Sampler.satisfies] anyway. *)

let stopwait_point rng =
  let c = cents rng in
  let a = c 5000 15000 and b = c 5000 15000 and f6 = c 500 2500 in
  let p = c 1 30 and q = c 1 30 in
  List.map
    (fun (k, v) -> (k, render_cents v))
    [
      ("E(t3)", a + b + f6 + c 100 20000);
      ("F(t1)", c 50 300);
      ("F(t2)", c 50 300);
      ("F(t3)", c 50 300);
      ("F(t4)", a);
      ("F(t5)", a);
      ("F(t6)", f6);
      ("F(t7)", c 500 2500);
      ("F(t8)", b);
      ("F(t9)", b);
      ("f(t4)", p);
      ("f(t5)", 100 - p);
      ("f(t8)", 100 - q);
      ("f(t9)", q);
    ]

let handshake_point rng =
  let c = cents rng in
  let med = c 2000 12000 and acc = c 200 2000 in
  let p = c 1 30 and q = c 1 30 in
  List.map
    (fun (k, v) -> (k, render_cents v))
    [
      ("F(snd)", c 50 300);
      ("E(rt)", (2 * med) + acc + c 1000 30000);
      ("F(med)", med);
      ("F(acc)", acc);
      ("F(ses)", c 5000 50000);
      ("f(lq)", p);
      ("f(dq)", 100 - p);
      ("f(lr)", q);
      ("f(dr)", 100 - q);
    ]

(* ABP points are integers: at the paper's decimal point one evaluation
   of its 1195-term closed form costs half a second, at an integer
   point about 10 ms. *)
let abp_point rng =
  let i = int_in rng in
  let pkt = i 50 150 and proc = i 5 25 and ack = i 50 150 in
  List.map
    (fun (k, v) -> (k, string_of_int v))
    [
      ("E(to)", pkt + proc + ack + i 10 500);
      ("F(send)", i 1 5);
      ("F(pkt)", pkt);
      ("F(proc)", proc);
      ("F(ack)", ack);
      ("f(lp)", i 1 5);
      ("f(dp)", i 15 60);
      ("f(la)", i 1 5);
      ("f(da)", i 15 60);
    ]

(* The stop-and-wait point of the paper (Figure 1b with a 250 timeout);
   its exact throughput 1805/486672 is checked on every serve repeat. *)
let ci_point =
  [
    ("E(t3)", "250"); ("F(t1)", "1"); ("F(t2)", "1"); ("F(t3)", "1"); ("F(t4)", "106.7");
    ("F(t5)", "106.7"); ("F(t6)", "13.5"); ("F(t7)", "13.5"); ("F(t8)", "106.7");
    ("F(t9)", "106.7"); ("f(t4)", "0.05"); ("f(t5)", "0.95"); ("f(t8)", "0.95"); ("f(t9)", "0.05");
  ]

let ci_value = "1805/486672"

let model name =
  match Tpan.Models.find name with
  | Some m -> m
  | None -> failwith ("unknown builtin model " ^ name)

let delivery name = List.hd (model name).Tpan.Models.deliveries

let builtin_tpn =
  let memo = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some t -> t
    | None ->
      let t = (model name).Tpan.Models.make [] in
      Hashtbl.add memo name t;
      t

let draw_point rng name =
  let draw =
    match name with
    | "stopwait-sym" -> stopwait_point
    | "handshake-sym" -> handshake_point
    | "abp-sym" -> abp_point
    | _ -> invalid_arg name
  in
  let rec go () =
    let pt = draw rng in
    if Tpan_check.Sampler.satisfies (builtin_tpn name) (exact pt) then pt else go ()
  in
  go ()

let eval_item name pt =
  let transition = delivery name in
  Eval
    {
      net = Builtin name;
      transition;
      point = exact pt;
      body =
        J.to_string
          (J.Obj
             [
               ("model", J.Str name);
               ("transition", J.Str transition);
               ("point", point_json pt);
             ]);
    }

(* Never-seen points: a point is keyed by the exact rationals it
   denotes, which is how the server's eval memo keys it. *)
let point_key name pt =
  name ^ "|"
  ^ String.concat ","
      (List.sort compare (List.map (fun (k, q) -> k ^ "=" ^ Q.to_string q) (exact pt)))

let fresh_point rng seen name =
  let rec go () =
    let pt = draw_point rng name in
    let k = point_key name pt in
    if Hashtbl.mem seen k then go ()
    else begin
      Hashtbl.add seen k ();
      pt
    end
  in
  go ()

(* ----- workloads ----- *)

(* The traffic mix is exact in every block: [mix rng pattern n] lays out
   shuffled copies of [pattern] until [n] entries, so a sample's cost
   does not hinge on how many of a rare, expensive kind it drew. *)
let mix rng pattern n =
  let block = Array.of_list pattern in
  let k = Array.length block in
  Array.init n (fun i ->
      if i mod k = 0 then
        for a = k - 1 downto 1 do
          let b = Random.State.int rng (a + 1) in
          let t = block.(a) in
          block.(a) <- block.(b);
          block.(b) <- t
        done;
      block.(i mod k))

let eval_hot rng ~n =
  let nets = [| "stopwait-sym"; "handshake-sym"; "abp-sym" |] in
  let seen = Hashtbl.create 64 in
  let hot = Array.map (fun name -> Array.init 16 (fun _ -> eval_item name (fresh_point rng seen name))) nets in
  let items = Array.map (fun net -> hot.(net).(Random.State.int rng 16)) (mix rng [ 0; 0; 1; 2 ] n) in
  (eval_item "stopwait-sym" ci_point :: List.concat_map Array.to_list (Array.to_list hot), items)

let eval_fresh rng ~n =
  let seen = Hashtbl.create (2 * n) in
  let prime =
    [
      eval_item "stopwait-sym" ci_point;
      eval_item "handshake-sym" (fresh_point rng seen "handshake-sym");
      eval_item "abp-sym" (fresh_point rng seen "abp-sym");
    ]
  in
  Hashtbl.replace seen (point_key "stopwait-sym" ci_point) ();
  let pattern =
    List.init 14 (fun _ -> "stopwait-sym") @ List.init 5 (fun _ -> "handshake-sym") @ [ "abp-sym" ]
  in
  (prime, Array.map (fun name -> eval_item name (fresh_point rng seen name)) (mix rng pattern n))

(* A fresh 32-point grid along the net's timeout: every grid point keeps
   the timeout above the delays it must dominate. *)
let sweep rng ~n =
  let seen = Hashtbl.create (2 * n) in
  let item name =
    let pt = fresh_point rng seen name in
    let axis_name = match name with "stopwait-sym" -> "E(t3)" | _ -> "E(rt)" in
    let lo = List.assoc axis_name pt in
    let lo_cents = int_of_float (Float.round (float_of_string lo *. 100.)) in
    let hi = render_cents (lo_cents + cents rng 5000 40000) in
    let bindings = List.filter (fun (k, _) -> k <> axis_name) pt in
    let transition = delivery name in
    Sweep
      {
        model = name;
        transition;
        bindings = exact bindings;
        axis =
          {
            Tpan_perf.Sweep.name = axis_name;
            lo = Q.of_decimal_string lo;
            hi = Q.of_decimal_string hi;
            steps = 32;
          };
        body =
          J.to_string
            (J.Obj
               [
                 ("model", J.Str name);
                 ("transitions", J.List [ J.Str transition ]);
                 ("bindings", point_json bindings);
                 ( "axes",
                   J.List
                     [
                       J.Obj
                         [
                           ("name", J.Str axis_name);
                           ("lo", J.Str lo);
                           ("hi", J.Str hi);
                           ("steps", J.Int 32);
                         ];
                     ] );
                 ("jobs", J.Int 2);
               ]);
      }
  in
  let prime =
    [ eval_item "stopwait-sym" ci_point; eval_item "handshake-sym" (fresh_point rng seen "handshake-sym") ]
  in
  (prime, Array.map item (mix rng [ "stopwait-sym"; "handshake-sym" ] n))

(* Generated nets, deduplicated by content hash so each one costs the
   server a full derivation: about 4 in 5 of the first few hundred
   generator seeds give distinct nets.

   Nets with more than four symbolic branching frequencies are skipped
   (about 1 in 15). Their closed forms grow to 2,000-25,000 terms, and
   the largest, under 1 in 100 nets, take a second or more each: a
   1000-net sample's cost would hinge on how many of those it drew. *)
let max_frequency_symbols = 4

let frequency_symbols tpn =
  List.length (List.filter (fun v -> not (Tpan_symbolic.Var.is_time v)) (Tpan_check.Sampler.vars tpn))

let derive_cold ~seed ~n =
  let seen = Hashtbl.create (2 * n) in
  let items = ref [] and count = ref 0 and k = ref 0 in
  while !count < n do
    let case = Tpan_check.Gen.case ~seed:((seed * 100_000) + !k) in
    incr k;
    let src = Tpan_dsl.Printer.to_string case.tpn in
    let tpn = Tpan_dsl.Parser.parse_string src in
    let h = Tpan.Canonical.hash (Tpan.Canonical.of_tpn tpn) in
    if (not (Hashtbl.mem seen h)) && frequency_symbols tpn <= max_frequency_symbols then begin
      Hashtbl.add seen h ();
      match Tpan_check.Sampler.base_point tpn with
      | None -> ()
      | Some point ->
        incr count;
        items :=
          Eval
            {
              net = Source { src; tpn };
              transition = case.delivery;
              point;
              body =
                J.to_string
                  (J.Obj
                     [
                       ("net", J.Str src);
                       ("transition", J.Str case.delivery);
                       ("point", J.Obj (List.map (fun (k, q) -> (k, J.Str (Q.to_string q))) point));
                     ]);
            }
          :: !items
    end
  done;
  ([], Array.of_list (List.rev !items))

(* ----- the CLI workload ----- *)

(* [pipeline] is left out: it has no decision node, so [tpan analyze]
   rejects it (exit 4) and every run of it would be a failure. *)
let cli_models = [ "stopwait"; "abp"; "handshake"; "channel"; "ring"; "batch" ]


(* Seeded parameter overrides: loss probabilities in 0.01..0.25, every
   other non-zero parameter within 40% of its default, one decimal. A
   draw whose analysis fails or exceeds 2000 states is redrawn. *)
let cli_net rng seen i name =
  let rec go () =
    let m = model name in
    let params =
      List.map
        (fun (k, d) ->
          let text =
            if String.ends_with ~suffix:"loss" k then render_cents (cents rng 1 25)
            else if Q.is_zero d then "0"
            else
              let x = Q.to_float d *. (0.6 +. Random.State.float rng 0.8) in
              Printf.sprintf "%.1f" (Float.max 0.1 x)
          in
          (k, text))
        m.Tpan.Models.params
    in
    let src = Tpan_dsl.Printer.to_string (m.Tpan.Models.make (exact params)) in
    let tpn = Tpan_dsl.Parser.parse_string src in
    let net_hash = Tpan.Canonical.hash (Tpan.Canonical.of_tpn tpn) in
    let transition = List.hd m.Tpan.Models.deliveries in
    match
      if Hashtbl.mem seen net_hash then None
      else Result.to_option (Tpan.Analysis.compute ~max_states ~throughputs:[ transition ] tpn)
    with
    | Some report when report.Tpan.Analysis.states <= 2000 ->
      Hashtbl.add seen net_hash ();
      Analyze
        {
          model = m.Tpan.Models.name;
          params = exact params;
          src;
          file = Printf.sprintf "n%05d.tpn" i;
          transition;
          expected =
            without_trace_id
              (envelope ~kind:"analysis" ~net_hash (Tpan.Analysis.report_fields report));
        }
    | _ -> go ()
  in
  go ()

(* The CLI keeps no cache between runs, so a pool of distinct nets can
   be cycled: run [i] analyzes net [i mod cli_pool]. *)
let cli_pool = 256

let analyze_cli rng ~n =
  let seen = Hashtbl.create cli_pool in
  let pool = Array.mapi (cli_net rng seen) (mix rng cli_models (min n cli_pool)) in
  ([], Array.init n (fun i -> pool.(i mod Array.length pool)))

(* ----- assembly ----- *)

let names = [ "eval-hot"; "eval-fresh"; "sweep"; "derive-cold"; "analyze-cli" ]

let make name ~seed ~warmup ~count =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let n = warmup + count in
  let prime, items, conns =
    match name with
    | "eval-hot" ->
      let p, i = eval_hot rng ~n in
      (p, i, 2)
    | "eval-fresh" ->
      let p, i = eval_fresh rng ~n in
      (p, i, 2)
    | "sweep" ->
      let p, i = sweep rng ~n in
      (p, i, 1)
    | "derive-cold" ->
      let p, i = derive_cold ~seed ~n in
      (p, i, 2)
    | "analyze-cli" ->
      let p, i = analyze_cli rng ~n in
      (p, i, 0)
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { name; conns; prime; items; warmup }

(* ----- expected answers ----- *)

let derive tpn transition =
  let g = Tpan_core.Symbolic.build ~max_states tpn in
  M.Symbolic.throughput (M.Symbolic.analyze g) g transition

let closed_form =
  let memo = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some cf -> cf
    | None ->
      let cf = derive (builtin_tpn name) (delivery name) in
      Hashtbl.add memo name cf;
      cf

(* Memoized by request body: the hot workload repeats 48 points, and
   every repeat replays the same list. *)
let expected_eval =
  let memo = Hashtbl.create 1024 in
  fun ~body net transition point ->
    match Hashtbl.find_opt memo body with
    | Some v -> v
    | None ->
      let cf =
        match net with Builtin name -> closed_form name | Source { tpn; _ } -> derive tpn transition
      in
      let v = Q.to_string (M.Symbolic.eval_at cf point) in
      Hashtbl.add memo body v;
      v

let field name doc =
  match J.member name doc with Some v -> v | None -> failwith ("response lacks " ^ name)

(* Check one response body against the in-process answer. *)
let verify item body =
  match J.of_string body with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok doc -> (
    try
      match item with
      | Eval { net; transition; point; body } ->
        let want = expected_eval ~body net transition point in
        (match field "throughput" doc with
        | J.Str got when got = want -> Ok ()
        | v -> Error (Printf.sprintf "throughput %s, expected %s" (J.to_string v) want))
      | Sweep { model; transition; bindings; axis; _ } ->
        let col = "thr(" ^ transition ^ ")" in
        let sw =
          Tpan_perf.Sweep.over_expr ~jobs:1 ~bindings ~exprs:[ (col, closed_form model) ] [ axis ]
        in
        let want = List.map (fun (r : Tpan_perf.Sweep.row) -> Q.to_string (List.assoc col r.values)) sw.rows in
        let got =
          match field "rows" doc with
          | J.List rows ->
            List.map
              (fun r -> match J.member col (field "values" r) with Some (J.Str s) -> s | _ -> "?")
              rows
          | _ -> []
        in
        if got = want then Ok ()
        else Error (Printf.sprintf "sweep rows differ (%d rows, expected %d)" (List.length got) (List.length want))
      | Analyze _ -> Error "not a served request"
    with Failure m -> Error m)
