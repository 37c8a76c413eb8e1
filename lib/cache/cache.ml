module J = Tpan_obs.Jsonv
module Metrics = Tpan_obs.Metrics
module Log = Tpan_obs.Log
module Ndjson = Tpan_obs.Ndjson

type 'a entry = { value : 'a; weight : int; mutable tick : int }

type 'a t = {
  name : string;
  budget : int;
  table : (string, 'a entry) Hashtbl.t;
  building : (string, unit) Hashtbl.t;  (* keys claimed by a build in flight *)
  mutex : Mutex.t;  (* guards [table], [building], [clock] and [bytes] *)
  mutable clock : int;
  mutable bytes : int;
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  evictions : Metrics.Counter.t;
  bytes_g : Metrics.Gauge.t;
  entries_g : Metrics.Gauge.t;
  persist : (string * ('a -> J.t)) option;  (* file path, encoder *)
}

type stats = { hits : int; misses : int; evictions : int; entries : int; bytes : int }

let locked (c : _ t) f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

(* Charge the key and a few words of table/entry overhead alongside the
   value itself, so even immediate values carry a non-zero weight. *)
let weigh key v =
  (Obj.reachable_words (Obj.repr v) + Obj.reachable_words (Obj.repr key) + 8)
  * (Sys.word_size / 8)

let publish_gauges (c : _ t) =
  Metrics.Gauge.set c.bytes_g (float_of_int c.bytes);
  Metrics.Gauge.set c.entries_g (float_of_int (Hashtbl.length c.table))

let touch (c : _ t) e =
  c.clock <- c.clock + 1;
  e.tick <- c.clock

(* Evict least-recently-used entries until the total fits the budget,
   never evicting [keep] (the entry whose insertion triggered this). *)
let enforce_budget (c : _ t) ~keep =
  while
    c.bytes > c.budget
    &&
    let victim = ref None in
    Hashtbl.iter
      (fun k (e : _ entry) ->
        if k <> keep then
          match !victim with
          | Some (_, t) when t <= e.tick -> ()
          | _ -> victim := Some (k, e.tick))
      c.table;
    match !victim with
    | None -> false
    | Some (k, _) ->
      let e = Hashtbl.find c.table k in
      Hashtbl.remove c.table k;
      c.bytes <- c.bytes - e.weight;
      Metrics.Counter.incr c.evictions;
      true
  do
    ()
  done;
  publish_gauges c

(* The persisted line format; lines of any other schema are skipped. *)
let schema = 2

let unlocked_put ?(persist = true) (c : _ t) key value =
  (match Hashtbl.find_opt c.table key with
   | Some old ->
     Hashtbl.remove c.table key;
     c.bytes <- c.bytes - old.weight
   | None -> ());
  let e = { value; weight = weigh key value; tick = 0 } in
  touch c e;
  Hashtbl.replace c.table key e;
  c.bytes <- c.bytes + e.weight;
  enforce_budget c ~keep:key;
  match if persist then c.persist else None with
  | None -> ()
  | Some (path, encode) -> (
    let line =
      J.Obj
        [
          ("schema", J.Int schema);
          ("kind", J.Str c.name);
          ("key", J.Str key);
          ("value", encode value);
        ]
    in
    match Ndjson.append path line with
    | Ok () -> ()
    | Error e ->
      Log.warn "cache: cannot persist entry"
        ~fields:[ ("cache", J.Str c.name); ("error", J.Str e) ])

(* Replays line by line, each entry inserted under the byte budget as it
   is read: a file larger than the budget is never decoded whole. *)
let load_persisted (c : _ t) decode path =
  let entry doc =
    match (J.member "schema" doc, J.member "key" doc, J.member "value" doc) with
    | Some (J.Int s), Some (J.Str key), Some v when s = schema ->
      Option.map (fun value -> (key, value)) (decode v)
    | _ -> None
  in
  let insert () (key, value) = unlocked_put ~persist:false c key value in
  match Ndjson.fold path entry insert () with
  | Ok ((), 0) -> ()
  | Ok ((), skipped) ->
    Log.warn "cache: skipped undecodable persisted entries"
      ~fields:[ ("cache", J.Str c.name); ("skipped", J.Int skipped) ]
  | Error e ->
    Log.warn "cache: cannot replay persisted entries"
      ~fields:[ ("cache", J.Str c.name); ("error", J.Str e) ]

let create ~name ?(budget_bytes = 64 * 1024 * 1024) ?persist ?encode ?decode () =
  let persist_cfg =
    match (persist, encode, decode) with
    | None, _, _ -> None
    | Some dir, Some enc, Some _ -> Some (Filename.concat dir (name ^ ".ndjson"), enc)
    | Some _, _, _ ->
      invalid_arg "Cache.create: persist requires both encode and decode"
  in
  let metric m = "cache." ^ name ^ "." ^ m in
  let c =
    {
      name;
      budget = budget_bytes;
      table = Hashtbl.create 64;
      building = Hashtbl.create 8;
      mutex = Mutex.create ();
      clock = 0;
      bytes = 0;
      hits = Metrics.counter (metric "hits");
      misses = Metrics.counter (metric "misses");
      evictions = Metrics.counter (metric "evictions");
      bytes_g = Metrics.gauge (metric "bytes");
      entries_g = Metrics.gauge (metric "entries");
      persist = persist_cfg;
    }
  in
  (match (persist_cfg, decode) with
   | Some (path, _), Some dec -> locked c (fun () -> load_persisted c dec path)
   | _ -> ());
  c

(* A hit bumps its counter and the entry's recency; a miss is counted by
   the caller, which knows whether the lookup will wait instead. *)
let unlocked_hit (c : _ t) key =
  match Hashtbl.find_opt c.table key with
  | Some e ->
    Metrics.Counter.incr c.hits;
    touch c e;
    Some e.value
  | None -> None

let find c key =
  locked c (fun () ->
      let v = unlocked_hit c key in
      if Option.is_none v then Metrics.Counter.incr c.misses;
      v)

let put c key value = locked c (fun () -> unlocked_put c key value)

(* The latch: a miss claims its key and builds outside the mutex, so
   distinct keys build in parallel and lookups of other keys never wait
   for a build. A lookup of a claimed key polls it (the mutex released,
   at most 1 ms asleep between looks) and checks its own request's token
   each time, so it keeps its own deadline; it checks rather than
   checkpoints, since waiting is no progress and must not beat for the
   stall watchdog while the build it waits on is wedged. When the
   builder's value lands the waiter counts a hit, as it would have after
   waiting for the mutex. A raising build releases its claim and caches
   nothing, and a waiter then claims the key and builds it itself: the
   builder's exception (a deadline abort, say) is not the waiter's. *)
type 'a claim = Hit of 'a | Building | Claimed

let find_or_build c key build =
  let claim () =
    match unlocked_hit c key with
    | Some v -> Hit v
    | None when Hashtbl.mem c.building key -> Building
    | None ->
      Metrics.Counter.incr c.misses;
      Hashtbl.replace c.building key ();
      Claimed
  in
  let rec go () =
    match locked c claim with
    | Hit v -> v
    | Building ->
      Unix.sleepf 0.001;
      Tpan_obs.Cancel.check ();
      go ()
    | Claimed -> (
      match build () with
      | v ->
        locked c (fun () ->
            Hashtbl.remove c.building key;
            unlocked_put c key v);
        v
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        locked c (fun () -> Hashtbl.remove c.building key);
        Printexc.raise_with_backtrace exn bt)
  in
  go ()

let mem c key = locked c (fun () -> Hashtbl.mem c.table key)

let remove c key =
  locked c (fun () ->
      match Hashtbl.find_opt c.table key with
      | None -> ()
      | Some e ->
        Hashtbl.remove c.table key;
        c.bytes <- c.bytes - e.weight;
        publish_gauges c)

let clear c =
  locked c (fun () ->
      Hashtbl.reset c.table;
      c.bytes <- 0;
      publish_gauges c)

(* Read without the cache mutex: counters and gauges are atomic cells,
   and the gauges carry entries and bytes as of the last insertion or
   removal, so a scrape never contends with the lookups it reports. *)
let stats (c : _ t) =
  {
    hits = Metrics.Counter.value c.hits;
    misses = Metrics.Counter.value c.misses;
    evictions = Metrics.Counter.value c.evictions;
    entries = int_of_float (Metrics.Gauge.value c.entries_g);
    bytes = int_of_float (Metrics.Gauge.value c.bytes_g);
  }

let name c = c.name
let budget_bytes c = c.budget
