module Q = Tpan_mathkit.Q
module Error = Tpan_core.Error
module CG = Tpan_core.Concrete
module J = Tpan_obs.Jsonv

type axis = { name : string; lo : Q.t; hi : Q.t; steps : int }

let parse_axis spec =
  let fail () =
    Error (Printf.sprintf "bad grid spec %s (expected NAME=LO..HI:STEPS)" (Error.quote spec))
  in
  match String.index_opt spec '=' with
  | None -> fail ()
  | Some eq -> (
    let name = String.trim (String.sub spec 0 eq) in
    let rhs = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    match String.index_opt rhs ':' with
    | None -> fail ()
    | Some colon -> (
      let range = String.sub rhs 0 colon in
      let steps_s = String.sub rhs (colon + 1) (String.length rhs - colon - 1) in
      match
        let dots =
          let rec find i =
            if i + 1 >= String.length range then None
            else if range.[i] = '.' && range.[i + 1] = '.' then Some i
            else find (i + 1)
          in
          find 0
        in
        dots
      with
      | None -> fail ()
      | Some d -> (
        let lo_s = String.trim (String.sub range 0 d) in
        let hi_s = String.trim (String.sub range (d + 2) (String.length range - d - 2)) in
        match
          ( Q.of_decimal_string lo_s,
            Q.of_decimal_string hi_s,
            int_of_string_opt (String.trim steps_s) )
        with
        | lo, hi, Some steps when name <> "" && steps >= 1 && Q.compare lo hi <= 0 ->
          Ok { name; lo; hi; steps }
        | _ -> fail ()
        | exception Invalid_argument _ -> fail ())))

(* a grid can be arbitrarily large, so generating it polls the request's
   deadline once per axis value and once per generated tuple *)
let axis_values a =
  if a.steps <= 1 then [ a.lo ]
  else
    let span = Q.sub a.hi a.lo in
    let denom = Q.of_int (a.steps - 1) in
    List.init a.steps (fun k ->
        Tpan_obs.Cancel.checkpoint ();
        Q.add a.lo (Q.div (Q.mul span (Q.of_int k)) denom))

let points axes =
  List.fold_right
    (fun a acc ->
      List.concat_map
        (fun v ->
          List.map
            (fun tail ->
              Tpan_obs.Cancel.checkpoint ();
              (a.name, v) :: tail)
            acc)
        (axis_values a))
    axes [ [] ]

type row = {
  point : (string * Q.t) list;
  values : (string * Q.t) list;
  error : Error.t option;
}

type t = { axes : axis list; columns : string list; rows : row list }

let qf q = Format.asprintf "%a" (Q.pp_decimal ~digits:6) q

(* A failure [over_tpn] raises at a point becomes that row's error; a
   genuinely unclassifiable exception is a bug and propagates. *)
let classify e =
  match Errors.of_exn e with
  | Some err -> err
  | None -> (
    match e with
    | Invalid_argument msg | Failure msg -> Error.Invalid_input msg
    | e -> raise e)

(* A cancelled point aborts the whole sweep: the deadline belongs to the
   request, not to the point, so it must not become a row error. *)
let rows_of_results pts results =
  List.iter
    (function
      | Error { Tpan_par.Pool.exn = Tpan_obs.Cancel.Cancelled _ as e; _ } -> raise e
      | _ -> ())
    results;
  List.mapi
    (fun index (point, r) ->
      let r =
        match r with Ok r -> r | Error (e : Tpan_par.Pool.error) -> Error (classify e.exn)
      in
      match r with
      | Ok values -> { point; values; error = None }
      | Error err ->
        Tpan_obs.Log.warn "sweep point failed"
          ~fields:
            [
              ("index", Tpan_obs.Jsonv.Int index);
              ( "point",
                Tpan_obs.Jsonv.Obj
                  (List.map (fun (k, v) -> (k, Tpan_obs.Jsonv.Raw (qf v))) point) );
              ("error", Tpan_obs.Jsonv.Str (Error.to_string err));
            ];
        { point; values = []; error = Some err })
    (List.combine pts results)

(* every grid point polls the deadline, then traces as its own span (in
   its worker's lane when the pool fans out), labelled with its row-major
   index *)
let spanned name eval (i, point) =
  Tpan_obs.Cancel.checkpoint ();
  Tpan_obs.Trace.with_span name (fun sp ->
      Tpan_obs.Trace.add_attr_int sp "index" i;
      eval point)

let indexed pts = List.mapi (fun i p -> (i, p)) pts

let over_tpn ?jobs ?max_states ~make ~throughputs axes =
  let columns = List.map (fun t -> "thr(" ^ t ^ ")") throughputs @ [ "mean_cycle_time" ] in
  let pts = points axes in
  let eval point =
    let tpn = make point in
    let g = CG.build ?max_states tpn in
    let r = Measures.Concrete.analyze g in
    Ok
      (List.map2
         (fun col t -> (col, Measures.Concrete.throughput r g t))
         (List.map (fun t -> "thr(" ^ t ^ ")") throughputs)
         throughputs
      @ [ ("mean_cycle_time", Measures.mean_cycle_time r) ])
  in
  let results = Tpan_par.Pool.try_map ?jobs (spanned "sweep.point" eval) (indexed pts) in
  { axes; columns; rows = rows_of_results pts results }

let over_expr ?jobs ~bindings ~exprs axes =
  let columns = List.map fst exprs in
  let pts = points axes in
  let eval point =
    (* the point's coordinates shadow any clashing fixed binding *)
    let env = point @ bindings in
    let rec values = function
      | [] -> Ok []
      | (name, rf) :: rest ->
        Result.bind (Measures.Symbolic.eval rf env) (fun v ->
            Result.map (fun vs -> (name, v) :: vs) (values rest))
    in
    values exprs
  in
  let results = Tpan_par.Pool.try_map ?jobs (spanned "sweep.point" eval) (indexed pts) in
  { axes; columns; rows = rows_of_results pts results }

(* ---------------- rendering ---------------- *)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let b = Buffer.create 1024 in
  let axis_names = List.map (fun a -> a.name) t.axes in
  Buffer.add_string b (String.concat "," (List.map csv_cell (axis_names @ t.columns @ [ "error" ])));
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      let coords = List.map (fun (_, v) -> qf v) r.point in
      let cells =
        List.map
          (fun col -> match List.assoc_opt col r.values with Some v -> qf v | None -> "")
          t.columns
      in
      let err =
        match r.error with
        | None -> ""
        | Some e ->
          String.concat "; " (String.split_on_char '\n' (Error.to_string e))
      in
      Buffer.add_string b (String.concat "," (List.map csv_cell (coords @ cells @ [ err ])));
      Buffer.add_char b '\n')
    t.rows;
  Buffer.contents b

(* Exact, as every served rational is: [Q.to_string] strings. *)
let fields t =
  let q v = J.Str (Q.to_string v) in
  let qs l = J.Obj (List.map (fun (k, v) -> (k, q v)) l) in
  let axis a =
    J.Obj [ ("name", J.Str a.name); ("lo", q a.lo); ("hi", q a.hi); ("steps", J.Int a.steps) ]
  in
  let error = function None -> J.Null | Some e -> J.Str (Error.to_string e) in
  let row r = J.Obj [ ("point", qs r.point); ("values", qs r.values); ("error", error r.error) ] in
  [
    ("axes", J.List (List.map axis t.axes));
    ("columns", J.List (List.map (fun c -> J.Str c) t.columns));
    ("rows", J.List (List.map row t.rows));
  ]

let pp fmt t =
  let axis_names = List.map (fun a -> a.name) t.axes in
  let headers = axis_names @ t.columns in
  let width = List.fold_left (fun w h -> max w (String.length h)) 12 headers + 2 in
  Format.pp_open_vbox fmt 0;
  List.iter (fun h -> Format.fprintf fmt "%-*s" width h) headers;
  Format.pp_print_cut fmt ();
  List.iter
    (fun r ->
      List.iter (fun (_, v) -> Format.fprintf fmt "%-*s" width (qf v)) r.point;
      (match r.error with
       | None ->
         List.iter
           (fun col ->
             let cell =
               match List.assoc_opt col r.values with Some v -> qf v | None -> ""
             in
             Format.fprintf fmt "%-*s" width cell)
           t.columns
       | Some e -> Format.fprintf fmt "error: %s" (Error.to_string e));
      Format.pp_print_cut fmt ())
    t.rows;
  Format.pp_close_box fmt ()
