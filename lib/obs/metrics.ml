(* Every metric cell is safe to update from any domain, so one rule
   covers the main domain, pool workers and serve's connection domains:
   counters and gauges are [Atomic] cells, and each histogram carries
   its own mutex. Totals are therefore exact and independent of how
   work was scheduled. *)

type exemplar = { ex_value : float; ex_trace_id : string; ex_ts : float }

(* Cumulative-bucket boundaries tuned for request latencies in seconds;
   histograms observing other units still get exact count/sum/max (their
   observations land in the +Inf overflow bin). *)
let default_buckets =
  [| 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10. |]

type histogram = {
  lock : Mutex.t;  (* guards every field below *)
  mutable data : float array;
  mutable stored : int;  (* valid prefix of [data] *)
  mutable total : int;  (* observations ever, drives round-robin overwrite *)
  mutable hsum : float;
  mutable max_v : float;
  cap : int;
  bounds : float array;  (* finite upper bounds, strictly increasing *)
  bin_counts : int array;  (* per-bin counts; last slot is the +Inf bin *)
  bin_exemplars : exemplar option array;  (* latest exemplar per bin *)
}

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let add c n = ignore (Atomic.fetch_and_add c n)
  let incr = Atomic.incr
  let value = Atomic.get
  let reset c = Atomic.set c 0
end

module Gauge = struct
  type t = float Atomic.t

  let create () = Atomic.make 0.
  let set = Atomic.set

  let rec set_max g x =
    let cur = Atomic.get g in
    if x > cur && not (Atomic.compare_and_set g cur x) then set_max g x

  let value = Atomic.get
  let reset g = Atomic.set g 0.
end

module Histogram = struct
  type t = histogram

  let create ?(cap = 8192) ?(buckets = default_buckets) () =
    if cap <= 0 then invalid_arg "Histogram.create: cap must be positive";
    Array.iteri
      (fun i b ->
        if i > 0 && buckets.(i - 1) >= b then
          invalid_arg "Histogram.create: buckets must be strictly increasing")
      buckets;
    {
      lock = Mutex.create ();
      data = [||];
      stored = 0;
      total = 0;
      hsum = 0.;
      max_v = neg_infinity;
      cap;
      bounds = buckets;
      bin_counts = Array.make (Array.length buckets + 1) 0;
      bin_exemplars = Array.make (Array.length buckets + 1) None;
    }

  (* First bin whose upper bound admits [x]; the trailing slot is +Inf. *)
  let bin_of h x =
    let n = Array.length h.bounds in
    let rec go i = if i >= n || x <= h.bounds.(i) then i else go (i + 1) in
    go 0

  let observe ?trace_id h x =
    Mutex.protect h.lock @@ fun () ->
    (if h.stored < h.cap then begin
       if h.stored >= Array.length h.data then begin
         let grown = Array.make (max 64 (min h.cap (2 * Array.length h.data))) 0. in
         Array.blit h.data 0 grown 0 h.stored;
         h.data <- grown
       end;
       h.data.(h.stored) <- x;
       h.stored <- h.stored + 1
     end
     else h.data.(h.total mod h.cap) <- x);
    h.total <- h.total + 1;
    h.hsum <- h.hsum +. x;
    if x > h.max_v then h.max_v <- x;
    let bin = bin_of h x in
    h.bin_counts.(bin) <- h.bin_counts.(bin) + 1;
    match trace_id with
    | None -> ()
    | Some ex_trace_id ->
      h.bin_exemplars.(bin) <-
        Some { ex_value = x; ex_trace_id; ex_ts = Unix.gettimeofday () }

  let count h = Mutex.protect h.lock (fun () -> h.total)
  let sum h = Mutex.protect h.lock (fun () -> h.hsum)

  (* [peak] and [window] read the fields unguarded; callers hold the lock. *)
  let peak h = if h.total = 0 then Float.nan else h.max_v
  let window h = Array.sub h.data 0 h.stored
  let max_value h = Mutex.protect h.lock (fun () -> peak h)

  (* Nearest-rank percentile of an ascending window. *)
  let nearest_rank sorted q =
    let n = Array.length sorted in
    if n = 0 then Float.nan
    else
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

  (* The window is copied under the lock and sorted outside it, so a
     scrape never holds up observers for a sort. *)
  let sort_window w =
    Array.sort compare w;
    w

  let percentile h q =
    nearest_rank (sort_window (Mutex.protect h.lock (fun () -> window h))) q

  let reset h =
    Mutex.protect h.lock @@ fun () ->
    h.stored <- 0;
    h.total <- 0;
    h.hsum <- 0.;
    h.max_v <- neg_infinity;
    Array.fill h.bin_counts 0 (Array.length h.bin_counts) 0;
    Array.fill h.bin_exemplars 0 (Array.length h.bin_exemplars) None
end

(* ---------------- timing switch ---------------- *)

let timing = ref false
let set_timing b = timing := b
let timing_on () = !timing

let time h f =
  if not !timing then f ()
  else begin
    let t0 = Mclock.now () in
    Fun.protect ~finally:(fun () -> Histogram.observe h (Mclock.now () -. t0)) f
  end

(* ---------------- registry ---------------- *)

type metric = C of Counter.t | G of Gauge.t | H of Histogram.t

(* A registered metric remembers its family name and label set so the
   OpenMetrics export can group a family's labelled series under one
   [# TYPE] line. The registry key is the family name plus the rendered
   label set, so [counter_with "x" [("a","1")]] and ["x" [("a","2")]]
   are distinct series of one family. *)
type registered = { metric : metric; base : string; labels : (string * string) list }

let registry : (string, registered) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels labels =
  match labels with
  | [] -> ""
  | l ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) l)
    ^ "}"

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let full_name base labels = base ^ render_labels labels

let register base labels kind_of make =
  let labels = normalize_labels labels in
  let key = full_name base labels in
  Mutex.protect registry_lock @@ fun () ->
  match Hashtbl.find_opt registry key with
  | Some r ->
    (match kind_of r.metric with
     | Some x -> x
     | None -> invalid_arg (Printf.sprintf "Metrics: %S is registered as another kind" key))
  | None ->
    let x, m = make () in
    Hashtbl.add registry key { metric = m; base; labels };
    x

let counter_with name labels =
  register name labels
    (function C c -> Some c | _ -> None)
    (fun () ->
      let c = Counter.create () in
      (c, C c))

let gauge_with name labels =
  register name labels
    (function G g -> Some g | _ -> None)
    (fun () ->
      let g = Gauge.create () in
      (g, G g))

let histogram_with ?buckets name labels =
  register name labels
    (function H h -> Some h | _ -> None)
    (fun () ->
      let h = Histogram.create ?buckets () in
      (h, H h))

let counter name = counter_with name []
let gauge name = gauge_with name []
let histogram ?buckets name = histogram_with ?buckets name []

type bucket = { le : float; cumulative : int; exemplar : exemplar option }

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
      max : float;
      buckets : bucket list;
    }

let histogram_buckets (h : Histogram.t) =
  let n = Array.length h.bin_counts in
  let acc = ref 0 in
  List.init n (fun i ->
      acc := !acc + h.bin_counts.(i);
      {
        le = (if i < n - 1 then h.bounds.(i) else Float.infinity);
        cumulative = !acc;
        exemplar = h.bin_exemplars.(i);
      })

let value_of = function
  | C c -> Counter_v (Counter.value c)
  | G g -> Gauge_v (Gauge.value g)
  | H h ->
    (* one acquisition, so count, sum, window and buckets describe the
       same observations *)
    let count, sum, max, window, buckets =
      Mutex.protect h.lock (fun () ->
          (h.total, h.hsum, Histogram.peak h, Histogram.window h, histogram_buckets h))
    in
    let pct = Histogram.nearest_rank (Histogram.sort_window window) in
    Histogram_v { count; sum; p50 = pct 0.5; p90 = pct 0.9; p99 = pct 0.99; max; buckets }

(* Snapshot entries sorted by full series name: a family's labelled
   series are adjacent (same prefix), which the OpenMetrics export
   relies on to emit one [# TYPE] per family. *)
let snapshot_registered ?(all = true) () =
  let entries =
    Mutex.protect registry_lock @@ fun () ->
    Hashtbl.fold (fun key r acc -> (key, r) :: acc) registry []
  in
  List.map (fun (key, r) -> (key, r.base, r.labels, value_of r.metric)) entries
  |> List.filter (fun (_, _, _, v) ->
         all || match v with Histogram_v { count = 0; _ } -> false | _ -> true)
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let snapshot ?(all = true) () =
  List.map (fun (key, _, _, v) -> (key, v)) (snapshot_registered ~all ())

let find name =
  let m = Mutex.protect registry_lock @@ fun () -> Hashtbl.find_opt registry name in
  Option.map (fun r -> value_of r.metric) m

let counter_value name =
  match find name with Some (Counter_v n) -> n | _ -> 0

let pp_table ?(all = false) fmt () =
  let entries = snapshot ~all () in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "%-48s %s@," "metric" "value";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> Format.fprintf fmt "%-48s %d@," name n
      | Gauge_v x -> Format.fprintf fmt "%-48s %g@," name x
      | Histogram_v h ->
        if h.count = 0 then Format.fprintf fmt "%-48s (empty)@," name
        else
          Format.fprintf fmt "%-48s count=%d sum=%.6f p50=%.6f p90=%.6f p99=%.6f max=%.6f@,"
            name h.count h.sum h.p50 h.p90 h.p99 h.max)
    entries;
  Format.pp_close_box fmt ()

(* ---------------- machine exposition ---------------- *)

let to_json ?(all = false) () =
  let entry (name, v) =
    match v with
    | Counter_v n ->
      Jsonv.Obj
        [ ("name", Jsonv.Str name); ("kind", Jsonv.Str "counter"); ("value", Jsonv.Int n) ]
    | Gauge_v x ->
      Jsonv.Obj
        [ ("name", Jsonv.Str name); ("kind", Jsonv.Str "gauge"); ("value", Jsonv.Float x) ]
    | Histogram_v h ->
      (* Only the touched buckets travel: dump frames and ledger rows
         embed this document, and a run touches few bins. *)
      let touched =
        List.filteri
          (fun i b ->
            b.cumulative > 0
            && (i = 0
               || (List.nth h.buckets (i - 1)).cumulative < b.cumulative))
          h.buckets
      in
      Jsonv.Obj
        [
          ("name", Jsonv.Str name);
          ("kind", Jsonv.Str "histogram");
          ("count", Jsonv.Int h.count);
          ("sum", Jsonv.Float h.sum);
          ("p50", Jsonv.Float h.p50);
          ("p90", Jsonv.Float h.p90);
          ("p99", Jsonv.Float h.p99);
          ("max", Jsonv.Float h.max);
          ( "buckets",
            Jsonv.List
              (List.map
                 (fun b ->
                   Jsonv.Obj
                     (("le", Jsonv.Float b.le)
                     :: ("count", Jsonv.Int b.cumulative)
                     ::
                     (match b.exemplar with
                      | None -> []
                      | Some e -> [ ("exemplar_trace_id", Jsonv.Str e.ex_trace_id) ])))
                 touched) );
        ]
  in
  Jsonv.List (List.map entry (snapshot ~all ()))

(* OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The [tpan_] prefix
   guarantees a legal first character whatever the registry name was. *)
let om_name name =
  "tpan_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name

let om_label_name name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let om_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" x

let om_labels ?extra labels =
  let labels =
    List.map (fun (k, v) -> (om_label_name k, v)) labels
    @ match extra with None -> [] | Some kv -> [ kv ]
  in
  render_labels labels

let om_exemplar = function
  | None -> ""
  | Some e ->
    Printf.sprintf " # {trace_id=\"%s\"} %s %s"
      (escape_label_value e.ex_trace_id)
      (om_float e.ex_value) (om_float e.ex_ts)

let to_openmetrics ?(all = false) () =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let last_family = ref "" in
  List.iter
    (fun (_, base, labels, v) ->
      let n = om_name base in
      let header kind =
        if !last_family <> n ^ "/" ^ kind then begin
          pr "# TYPE %s %s\n" n kind;
          last_family := n ^ "/" ^ kind
        end
      in
      match v with
      | Counter_v c ->
        header "counter";
        pr "%s_total%s %d\n" n (om_labels labels) c
      | Gauge_v x ->
        header "gauge";
        pr "%s%s %s\n" n (om_labels labels) (om_float x)
      | Histogram_v h ->
        (* Explicit cumulative buckets ([le] inclusive upper bounds,
           +Inf last) so multi-process scrapes aggregate by addition —
           summary quantiles cannot. Exemplars ride on the buckets
           they landed in, pointing a slow scrape at a trace id. *)
        header "histogram";
        List.iter
          (fun bk ->
            pr "%s_bucket%s %d%s\n" n
              (om_labels ~extra:("le", om_float bk.le) labels)
              bk.cumulative (om_exemplar bk.exemplar))
          h.buckets;
        pr "%s_count%s %d\n" n (om_labels labels) h.count;
        pr "%s_sum%s %s\n" n (om_labels labels) (om_float h.sum))
    (snapshot_registered ~all ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
