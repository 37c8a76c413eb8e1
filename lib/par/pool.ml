type error = { index : int; message : string; exn : exn }

(* ---------------- jobs accounting ---------------- *)

let recommended_jobs () =
  let from_env =
    match Sys.getenv_opt "TPAN_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Some n
      | _ -> None)
    | None -> None
  in
  let n =
    match from_env with Some n -> n | None -> Domain.recommended_domain_count ()
  in
  max 1 (min 64 n)

let default = ref 1
let set_default_jobs n = default := max 1 n
let default_jobs () = !default

(* ---------------- nested-call guard ---------------- *)

let worker_flag : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)
let in_worker () = !(Domain.DLS.get worker_flag)

let with_worker_flag f =
  let flag = Domain.DLS.get worker_flag in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) f

let effective_jobs jobs n =
  let j = match jobs with Some j -> max 1 j | None -> default_jobs () in
  min j (max 1 n)

(* ---------------- worker observability harness ----------------

   Every worker domain gets a deterministic trace lane (worker [k] is
   lane [k + 1]; the calling domain keeps lane 0) and the spawning
   domain's context. Metric cells and log sinks are safe from any
   domain, so workers update and emit directly. A [pool.worker] span
   marks each worker's busy region in the merged Chrome trace. *)

(* GC words allocated inside each worker domain's busy region. OCaml 5
   keeps allocation counters per domain, so the quick_stat delta around
   the task is exactly this worker's churn: the histogram sum is the
   total allocated across workers, and the per-observation spread shows
   which domains starve the others into collections. *)
let h_minor = Tpan_obs.Metrics.histogram "par.pool.worker_minor_words"
let h_major = Tpan_obs.Metrics.histogram "par.pool.worker_major_words"

let run_worker ?ctx lane task =
  Tpan_obs.Trace.set_lane lane;
  (* the spawning domain's request context rides into the worker, so
     spans/logs carry the same trace id and a [--deadline] token aborts
     every lane — worker domains are fresh, their DLS starts empty *)
  Tpan_obs.Context.set ctx;
  (* [Gc.counters], not [quick_stat]: in OCaml 5 the stat record's
     allocation totals advance only at collection boundaries, so a
     worker that never fills its minor heap would report zero words.
     [counters] folds in the live minor-heap fill. *)
  let minor0, _, major0 = Gc.counters () in
  (* tasks never raise out of [task]: try_map captures per-task
     exceptions, so the observations below always run *)
  Tpan_obs.Trace.with_span "pool.worker" (fun sp ->
      Tpan_obs.Trace.add_attr_int sp "lane" lane;
      with_worker_flag task);
  let minor1, _, major1 = Gc.counters () in
  Tpan_obs.Metrics.Histogram.observe h_minor (minor1 -. minor0);
  Tpan_obs.Metrics.Histogram.observe h_major (major1 -. major0)

(* ---------------- per-domain scratch arenas ---------------- *)

module Scratch = struct
  type 'a t = 'a Domain.DLS.key

  let create init = Domain.DLS.new_key init
  let get k = Domain.DLS.get k
end

(* ---------------- ordered map ---------------- *)

let try_map_seq f xs =
  List.mapi
    (fun i x ->
      try Ok (f x)
      with e -> Error { index = i; message = Printexc.to_string e; exn = e })
    xs

let try_map ?jobs f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let j = effective_jobs jobs n in
  if n = 0 || j <= 1 || in_worker () then try_map_seq f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (try Ok (f arr.(i))
             with e -> Error { index = i; message = Printexc.to_string e; exn = e });
        work ()
      end
    in
    let ctx = Tpan_obs.Context.current () in
    let domains =
      Array.init (j - 1) (fun k ->
          Domain.spawn (fun () -> run_worker ?ctx (k + 1) work))
    in
    with_worker_flag work;
    Array.iter Domain.join domains;
    Array.to_list (Array.map Option.get results)
  end

let map ?jobs f xs =
  let n = List.length xs in
  if n = 0 || effective_jobs jobs n <= 1 || in_worker () then List.map f xs
  else
    let reraise_first = function
      | Ok y -> y
      | Error e -> raise e.exn
    in
    List.map reraise_first (try_map ?jobs f xs)
