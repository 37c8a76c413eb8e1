module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Marking = Tpan_petri.Marking
module Tpn = Tpan_core.Tpn
module Pool = Tpan_par.Pool

type stats = {
  horizon : Q.t;
  sim_time : Q.t;
  began : int array;
  completed : int array;
  place_time : Q.t array;
  deadlocked : bool;
}

let m_steps = Tpan_obs.Metrics.counter "sim.simulator.steps"
let m_firings = Tpan_obs.Metrics.counter "sim.simulator.firings"
let m_completions = Tpan_obs.Metrics.counter "sim.simulator.completions"

(* Shared ℚ constants for token counts: the token-time integral reads
   [Q.of_int marking.(p)] on every accounting step, and markings are
   small, so a tiny immutable cache removes that allocation entirely. *)
let qsmall = Array.init 65 Q.of_int
let q_of_count k = if k >= 0 && k < 65 then qsmall.(k) else Q.of_int k

(* ---------------- per-domain scratch arena ----------------

   One replication needs enablement flags, deadlines, firing flags, a
   conflict-set choice buffer and the completion-event heap. None of it
   survives the run, so the arrays live in a [Pool.Scratch] arena: each
   domain allocates them once (growing monotonically to the largest net
   it has simulated) and [run_many] stops churning the minor heap on
   per-run state. The event heap is three parallel flat arrays ordered
   by (time, sequence) — the sequence numbers are unique, so the order
   is total and identical to the old record-based heap. *)

type arena = {
  mutable en_flag : bool array; (* enabled now *)
  mutable en_deadline : Q.t array; (* instant the enabling time elapses *)
  mutable firing : bool array;
  mutable chosen : int array; (* per conflict set: winner this round, -1 none *)
  mutable heap_at : Q.t array;
  mutable heap_seq : int array;
  mutable heap_tr : int array;
  mutable heap_len : int;
}

let arena_key =
  Pool.Scratch.create (fun () ->
      {
        en_flag = [||];
        en_deadline = [||];
        firing = [||];
        chosen = [||];
        heap_at = [||];
        heap_seq = [||];
        heap_tr = [||];
        heap_len = 0;
      })

let arena_ready a ~nt ~ncs =
  if Array.length a.en_flag < nt then begin
    a.en_flag <- Array.make nt false;
    a.en_deadline <- Array.make nt Q.zero;
    a.firing <- Array.make nt false
  end
  else begin
    Array.fill a.en_flag 0 nt false;
    Array.fill a.firing 0 nt false
  end;
  if Array.length a.chosen < ncs then a.chosen <- Array.make ncs (-1);
  if Array.length a.heap_at = 0 then begin
    a.heap_at <- Array.make 64 Q.zero;
    a.heap_seq <- Array.make 64 0;
    a.heap_tr <- Array.make 64 0
  end;
  a.heap_len <- 0

let run ?(seed = 42) ?(warmup = Q.zero) ~horizon tpn =
  Tpan_obs.Trace.with_span "sim.run" @@ fun _sp ->
  if Q.sign warmup < 0 then invalid_arg "Simulator.run: negative warmup";
  if not (Tpn.is_concrete tpn) then
    raise (Tpn.Unsupported "Simulator.run: net has symbolic times or frequencies");
  let horizon = Q.add warmup horizon in
  let net = Tpn.net tpn in
  let nt = Net.num_transitions net and np = Net.num_places net in
  (* Flat views of the net and timing spec: the event loop reads these
     thousands of times per run and the assoc-list accessors would
     otherwise dominate. Values are the same ℚ/float the old code read
     through [Tpn] on every event. *)
  let in_p = Array.make nt [||] and in_w = Array.make nt [||] in
  let out_p = Array.make nt [||] and out_w = Array.make nt [||] in
  let enab = Array.make nt Q.zero and fire_t = Array.make nt Q.zero in
  let freq_f = Array.make nt 0. and zero_freq = Array.make nt false in
  let cs_of = Array.make nt 0 in
  for t = 0 to nt - 1 do
    in_p.(t) <- Array.of_list (List.map fst (Net.inputs net t));
    in_w.(t) <- Array.of_list (List.map snd (Net.inputs net t));
    out_p.(t) <- Array.of_list (List.map fst (Net.outputs net t));
    out_w.(t) <- Array.of_list (List.map snd (Net.outputs net t));
    enab.(t) <- Tpn.enabling_q tpn t;
    fire_t.(t) <- Tpn.firing_q tpn t;
    freq_f.(t) <- Q.to_float (Tpn.frequency_q tpn t);
    zero_freq.(t) <- Tpn.is_zero_frequency tpn t;
    cs_of.(t) <- Tpn.conflict_set_of tpn t
  done;
  let cs_members =
    Array.map
      (fun members -> Array.of_list (List.sort Stdlib.compare members))
      (Tpn.conflict_sets tpn)
  in
  let ncs = Array.length cs_members in
  let a = Pool.Scratch.get arena_key in
  arena_ready a ~nt ~ncs;
  let en_flag = a.en_flag and en_deadline = a.en_deadline and firing = a.firing in
  let rng = Rng.create ~seed in
  let marking = Net.initial_marking net in
  let clock = ref Q.zero in
  let last_accounted = ref Q.zero in
  let began = Array.make nt 0 and completed = Array.make nt 0 in
  let place_time = Array.make np Q.zero in
  let seq = ref 0 in
  (* metric bumps batched into locals; flushed once per run *)
  let n_steps = ref 0 and n_firings = ref 0 and n_completions = ref 0 in
  (* ---- completion-event heap (min by (at, seq)) ---- *)
  let heap_less i j =
    let c = Q.compare a.heap_at.(i) a.heap_at.(j) in
    if c <> 0 then c < 0 else a.heap_seq.(i) < a.heap_seq.(j)
  in
  let heap_swap i j =
    let at = a.heap_at.(i) and sq = a.heap_seq.(i) and tr = a.heap_tr.(i) in
    a.heap_at.(i) <- a.heap_at.(j);
    a.heap_seq.(i) <- a.heap_seq.(j);
    a.heap_tr.(i) <- a.heap_tr.(j);
    a.heap_at.(j) <- at;
    a.heap_seq.(j) <- sq;
    a.heap_tr.(j) <- tr
  in
  let heap_push at sq tr =
    let n = a.heap_len in
    if n = Array.length a.heap_at then begin
      let grow arr fill = Array.append arr (Array.make n fill) in
      a.heap_at <- grow a.heap_at Q.zero;
      a.heap_seq <- grow a.heap_seq 0;
      a.heap_tr <- grow a.heap_tr 0
    end;
    a.heap_at.(n) <- at;
    a.heap_seq.(n) <- sq;
    a.heap_tr.(n) <- tr;
    a.heap_len <- n + 1;
    let i = ref n in
    while !i > 0 && heap_less !i ((!i - 1) / 2) do
      heap_swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let heap_pop_trans () =
    let tr = a.heap_tr.(0) in
    let n = a.heap_len - 1 in
    a.heap_len <- n;
    heap_swap 0 n;
    a.heap_at.(n) <- Q.zero (* release the popped time value *);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < n && heap_less l !m then m := l;
      if r < n && heap_less r !m then m := r;
      if !m = !i then continue_ := false
      else begin
        heap_swap !i !m;
        i := !m
      end
    done;
    tr
  in
  let enabled t =
    let ps = in_p.(t) and ws = in_w.(t) in
    let n = Array.length ps in
    let ok = ref true in
    for k = 0 to n - 1 do
      if marking.(ps.(k)) < ws.(k) then ok := false
    done;
    !ok
  in
  (* advance the token-time integrals to the current clock *)
  let account () =
    (* integrate only the post-warmup part of the elapsed interval *)
    let from = Q.max !last_accounted warmup in
    let dt = Q.sub !clock from in
    if Q.sign dt > 0 then begin
      for p = 0 to np - 1 do
        if marking.(p) > 0 then
          place_time.(p) <- Q.add place_time.(p) (Q.mul dt (q_of_count marking.(p)))
      done
    end;
    if Q.compare !clock !last_accounted > 0 then last_accounted := !clock
  in
  (* re-derive enablement flags after any marking change *)
  let refresh () =
    for t = 0 to nt - 1 do
      let en = enabled t in
      if en && firing.(t) then
        raise
          (Tpn.Unsupported
             (Printf.sprintf "transition %s enabled while firing (simulation)"
                (Net.trans_name net t)));
      if en_flag.(t) then begin
        if not en then en_flag.(t) <- false
      end
      else if en then begin
        en_flag.(t) <- true;
        en_deadline.(t) <- Q.add !clock enab.(t)
      end
    done
  in
  let counting () = Q.compare !clock warmup >= 0 in
  let begin_firing t =
    incr n_firings;
    if counting () then began.(t) <- began.(t) + 1;
    let ps = in_p.(t) and ws = in_w.(t) in
    for k = 0 to Array.length ps - 1 do
      marking.(ps.(k)) <- marking.(ps.(k)) - ws.(k)
    done;
    en_flag.(t) <- false;
    if Q.is_zero fire_t.(t) then begin
      if counting () then completed.(t) <- completed.(t) + 1;
      let ps = out_p.(t) and ws = out_w.(t) in
      for k = 0 to Array.length ps - 1 do
        marking.(ps.(k)) <- marking.(ps.(k)) + ws.(k)
      done
    end
    else begin
      firing.(t) <- true;
      incr seq;
      heap_push (Q.add !clock fire_t.(t)) !seq t
    end
  in
  (* a transition whose enabling time has elapsed at the current instant *)
  let firable t = en_flag.(t) && Q.compare en_deadline.(t) !clock <= 0 in
  (* fire every transition that must begin firing at the current instant;
     conflict sets have disjoint input places, so the per-set choices are
     independent. Two-phase per round — choose for every set against the
     pre-firing snapshot (in ascending set order, members ascending), then
     fire all winners — so the RNG draw sequence is exactly the old one. *)
  let rec fire_all_now () =
    let any = ref false in
    for cs = 0 to ncs - 1 do
      let members = cs_members.(cs) in
      (* positive-frequency firable members, ascending *)
      let pos = ref [] and npos = ref 0 in
      let sole = ref (-1) and nfir = ref 0 in
      for k = Array.length members - 1 downto 0 do
        let t = members.(k) in
        if firable t then begin
          incr nfir;
          sole := t;
          if not zero_freq.(t) then begin
            pos := (t, freq_f.(t)) :: !pos;
            incr npos
          end
        end
      done;
      a.chosen.(cs) <-
        (if !nfir = 0 then -1
         else if !npos = 1 then fst (List.hd !pos)
         else if !npos = 0 then begin
           if !nfir = 1 then !sole
           else raise (Tpn.Unsupported "decision between several zero-frequency transitions")
         end
         else Rng.choose_weighted rng !pos);
      if a.chosen.(cs) >= 0 then any := true
    done;
    if !any then begin
      for cs = 0 to ncs - 1 do
        if a.chosen.(cs) >= 0 then begin_firing a.chosen.(cs)
      done;
      refresh ();
      fire_all_now ()
    end
  in
  let flush_metrics () =
    Tpan_obs.Metrics.Counter.add m_steps !n_steps;
    Tpan_obs.Metrics.Counter.add m_firings !n_firings;
    Tpan_obs.Metrics.Counter.add m_completions !n_completions
  in
  Fun.protect ~finally:flush_metrics @@ fun () ->
  refresh ();
  fire_all_now ();
  let deadlocked = ref false in
  let running = ref true in
  while !running do
    incr n_steps;
    (* gated to every 1024 steps: the checkpoint never touches the RNG
       or the trace output, so simulation streams stay bit-identical *)
    if !n_steps land 1023 = 0 then Tpan_obs.Cancel.checkpoint ();
    (* next moment anything must happen *)
    let next_firable = ref None in
    for t = 0 to nt - 1 do
      if en_flag.(t) then begin
        match !next_firable with
        | None -> next_firable := Some en_deadline.(t)
        | Some cur -> if Q.compare en_deadline.(t) cur < 0 then next_firable := Some en_deadline.(t)
      end
    done;
    let next_completion = if a.heap_len > 0 then Some a.heap_at.(0) else None in
    let tnext =
      match (!next_firable, next_completion) with
      | None, None -> None
      | Some x, None -> Some x
      | None, Some y -> Some y
      | Some x, Some y -> Some (Q.min x y)
    in
    match tnext with
    | None ->
      deadlocked := true;
      running := false
    | Some t when Q.compare t horizon > 0 ->
      clock := horizon;
      account ();
      running := false
    | Some t ->
      clock := t;
      account ();
      (* all completions scheduled for this instant *)
      while a.heap_len > 0 && Q.equal a.heap_at.(0) !clock do
        let tr = heap_pop_trans () in
        incr n_completions;
        firing.(tr) <- false;
        if counting () then completed.(tr) <- completed.(tr) + 1;
        let ps = out_p.(tr) and ws = out_w.(tr) in
        for k = 0 to Array.length ps - 1 do
          marking.(ps.(k)) <- marking.(ps.(k)) + ws.(k)
        done
      done;
      refresh ();
      fire_all_now ()
  done;
  account ();
  {
    horizon = Q.sub horizon warmup;
    sim_time = Q.max Q.zero (Q.sub !clock warmup);
    began;
    completed;
    place_time;
    deadlocked = !deadlocked;
  }

let throughput stats t =
  if Q.is_zero stats.sim_time then 0.
  else float_of_int stats.completed.(t) /. Q.to_float stats.sim_time

let mean_tokens stats p =
  if Q.is_zero stats.sim_time then 0.
  else Q.to_float stats.place_time.(p) /. Q.to_float stats.sim_time

let utilization stats p = Float.min 1.0 (mean_tokens stats p)

type estimate = { mean : float; std_error : float; ci95 : float * float; runs : int }

let replicate ?(seed = 42) ?warmup ~runs ~horizon tpn output =
  if runs <= 0 then invalid_arg "Simulator.replicate: runs must be positive";
  let master = Rng.create ~seed in
  let acc = Stats.Running.create () in
  for _ = 1 to runs do
    let s = Int64.to_int (Rng.next_int64 master) land max_int in
    let st = run ~seed:s ?warmup ~horizon tpn in
    Stats.Running.add acc (output st)
  done;
  {
    mean = Stats.Running.mean acc;
    std_error = Stats.Running.std_error acc;
    ci95 = Stats.Running.ci95 acc;
    runs;
  }

let run_many ?(seed = 42) ?warmup ?jobs ~runs ~horizon tpn output =
  if runs <= 0 then invalid_arg "Simulator.run_many: runs must be positive";
  (* Seeds are drawn from the master stream sequentially — the same
     derivation as [replicate] — so replication i sees the same seed no
     matter how many domains run the batch. *)
  let master = Rng.create ~seed in
  let seeds =
    List.init runs (fun _ -> Int64.to_int (Rng.next_int64 master) land max_int)
  in
  let outputs =
    Tpan_par.Pool.map ?jobs (fun s -> output (run ~seed:s ?warmup ~horizon tpn)) seeds
  in
  let acc = Stats.Running.create () in
  List.iter (Stats.Running.add acc) outputs;
  {
    mean = Stats.Running.mean acc;
    std_error = Stats.Running.std_error acc;
    ci95 = Stats.Running.ci95 acc;
    runs;
  }
