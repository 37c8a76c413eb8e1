(* Flight-recorder tests: cancellation tokens and deadline unwinding,
   request-context propagation across pool workers, frame JSON
   round-trips, the SIGUSR1 / stall watchdog, and throttled progress. *)

module Cancel = Tpan_obs.Cancel
module Context = Tpan_obs.Context
module Dump = Tpan_obs.Dump
module Progress = Tpan_obs.Progress
module J = Tpan_obs.Jsonv
module Pool = Tpan_par.Pool
module Error = Tpan_core.Error

let temp_flight () =
  let f = Filename.temp_file "tpan_flight" ".ndjson" in
  Sys.remove f;
  f

(* Busy-wait that reaches checkpoints until cancelled (or a wall-clock
   backstop trips, failing the test rather than hanging the suite). *)
let spin_until_cancelled ?(backstop = 10.) () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < backstop do
    Cancel.checkpoint ()
  done;
  Alcotest.fail "checkpoint never observed the cancellation"

let test_token_basics () =
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh token not cancelled" true (Cancel.cancelled t = None);
  Alcotest.(check bool) "no deadline unless asked" true (Cancel.deadline t = None);
  Cancel.cancel t (Cancel.Interrupted "first");
  Cancel.cancel t (Cancel.Deadline 1.0);
  (match Cancel.cancelled t with
  | Some (Cancel.Interrupted "first") -> ()
  | _ -> Alcotest.fail "first cancellation reason must win");
  let d = Cancel.create ~deadline_in:30. () in
  Alcotest.(check bool) "deadline resolved to an instant" true
    (Cancel.deadline d <> None);
  Alcotest.(check bool) "budget preserved" true (Cancel.budget d = Some 30.);
  (* checkpoint with no ambient token is a no-op that still heartbeats *)
  let before = Cancel.heartbeat_total () in
  Cancel.checkpoint ();
  Alcotest.(check bool) "checkpoint bumps the heartbeat" true
    (Cancel.heartbeat_total () > before)

let test_deadline_unwinds () =
  let ctx = Context.make ~deadline:0.05 () in
  match Context.with_ctx ctx (fun () -> spin_until_cancelled ()) with
  | exception Cancel.Cancelled (Cancel.Deadline b) ->
    Alcotest.(check bool) "reason carries the budget" true (b = 0.05);
    (* the classifier maps it to the stable error with exit code 6 *)
    (match Error.of_exn (Cancel.Cancelled (Cancel.Deadline b)) with
    | Some (Error.Deadline_exceeded _ as e) ->
      Alcotest.(check int) "exit code 6" 6 (Error.exit_code e)
    | _ -> Alcotest.fail "Cancelled must classify as Deadline_exceeded");
    Alcotest.(check bool) "ambient token restored" true (Cancel.current () = None)
  | _ -> Alcotest.fail "deadline never fired"

let test_on_cancel_hook_runs_once () =
  let fired = ref 0 in
  Cancel.set_on_cancel (Some (fun _ -> incr fired));
  Fun.protect
    ~finally:(fun () -> Cancel.set_on_cancel None)
    (fun () ->
      let t = Cancel.create () in
      Cancel.cancel t (Cancel.Interrupted "x");
      Cancel.cancel t (Cancel.Interrupted "y");
      Alcotest.(check int) "hook fires once per token" 1 !fired;
      (* a hook that raises must not poison the cancellation *)
      Cancel.set_on_cancel (Some (fun _ -> failwith "hook bug"));
      let t2 = Cancel.create () in
      Cancel.cancel t2 (Cancel.Interrupted "z");
      Alcotest.(check bool) "hook exceptions are swallowed" true
        (Cancel.cancelled t2 <> None))

(* The domain that claims a token runs the hook before it publishes the
   reason, so a slow hook (a dump writer) still sees the cancelled
   domain inside its span: no checkpoint raises until the hook is done.
   Here the claimer is another domain, as when the watchdog fires. *)
let test_hook_sees_live_spans () =
  let t = Cancel.create () in
  let inside = Atomic.make false in
  let seen = ref [] in
  Cancel.set_on_cancel
    (Some
       (fun _ ->
         Unix.sleepf 0.05;
         seen := Tpan_obs.Trace.span_stacks ()));
  Fun.protect
    ~finally:(fun () -> Cancel.set_on_cancel None)
    (fun () ->
      let worker =
        Domain.spawn (fun () ->
            Tpan_obs.Trace.set_lane 1;
            Cancel.set (Some t);
            Tpan_obs.Trace.with_span "work" (fun _ ->
                Atomic.set inside true;
                let t0 = Unix.gettimeofday () in
                match
                  while Unix.gettimeofday () -. t0 < 10. do
                    Cancel.checkpoint ()
                  done
                with
                | () -> false
                | exception Cancel.Cancelled _ -> true))
      in
      while not (Atomic.get inside) do
        Domain.cpu_relax ()
      done;
      Cancel.cancel t (Cancel.Deadline 0.05);
      Alcotest.(check bool) "the spinning domain unwound" true (Domain.join worker);
      Alcotest.(check bool) "the hook saw lane 1 inside its span" true
        (List.exists (fun (lane, stack) -> lane = 1 && List.mem "work" stack) !seen))

(* A server spawns a domain per connection and per sweep lane. Each
   exiting domain leaves both per-domain registries, and its
   checkpoints fold into the retired heartbeat total, so the rows stay
   bounded by the live domains while the watchdog's sum keeps rising. *)
let test_registries_drop_exited_domains () =
  let rows () =
    (List.length (Cancel.heartbeats ()), List.length (Tpan_obs.Trace.span_stacks ()))
  in
  (* this domain's own rows exist before the baseline *)
  Cancel.checkpoint ();
  Tpan_obs.Trace.with_span "baseline" ignore;
  let before = rows () and total = Cancel.heartbeat_total () in
  for _ = 1 to 50 do
    Domain.join
      (Domain.spawn (fun () ->
           Tpan_obs.Trace.with_span "short-lived" (fun _ -> Cancel.checkpoint ())))
  done;
  Alcotest.(check (pair int int)) "no rows left by 50 joined domains" before (rows ());
  Alcotest.(check bool) "retired checkpoints still count" true
    (Cancel.heartbeat_total () >= total + 50)

let test_pool_propagates_context () =
  let ctx = Context.make ~labels:[ ("req", "42") ] () in
  let ids =
    Context.with_ctx ctx (fun () ->
        Pool.map ~jobs:4
          (fun _ ->
            ( Option.map (fun (c : Context.t) -> c.Context.trace_id) (Context.current ()),
              Cancel.current () <> None ))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  List.iter
    (fun (id, has_token) ->
      Alcotest.(check (option string)) "worker sees the request trace id"
        (Some ctx.Context.trace_id) id;
      Alcotest.(check bool) "worker sees the request token" true has_token)
    ids

let test_pool_deadline_aborts_all_lanes () =
  let ctx = Context.make ~deadline:0.05 () in
  match
    Context.with_ctx ctx (fun () ->
        Pool.map ~jobs:4 (fun _ -> spin_until_cancelled ()) [ 1; 2; 3; 4 ])
  with
  | exception Cancel.Cancelled _ -> ()
  | _ -> Alcotest.fail "parallel map must unwind on the shared deadline"

let test_context_ids () =
  let a = Context.make () and b = Context.make () in
  Alcotest.(check bool) "trace ids unique" true (a.Context.trace_id <> b.Context.trace_id);
  let c = Context.child a in
  Alcotest.(check string) "child keeps the trace id" a.Context.trace_id c.Context.trace_id;
  Alcotest.(check bool) "child gets a fresh span id" true
    (a.Context.span_id <> c.Context.span_id)

let test_frame_roundtrip () =
  let ctx = Context.make () in
  let f =
    Context.with_ctx ctx (fun () ->
        Tpan_obs.Trace.with_span "flight.test" (fun _ ->
            Dump.snapshot ~kind:"dump" ~reason:"unit test" ()))
  in
  Alcotest.(check bool) "snapshot sees the open span" true
    (List.exists (fun (_, stack) -> List.mem "flight.test" stack) f.Dump.spans);
  Alcotest.(check (option string)) "snapshot carries the trace id"
    (Some ctx.Context.trace_id) f.Dump.trace_id;
  match Dump.of_json (Dump.to_json f) with
  | None -> Alcotest.fail "frame did not round-trip"
  | Some g ->
    Alcotest.(check string) "kind survives" f.Dump.kind g.Dump.kind;
    Alcotest.(check (option string)) "reason survives" f.Dump.reason g.Dump.reason;
    Alcotest.(check (option string)) "trace id survives" f.Dump.trace_id g.Dump.trace_id;
    Alcotest.(check bool) "spans survive" true (f.Dump.spans = g.Dump.spans);
    Alcotest.(check bool) "progress survives" true (f.Dump.progress = g.Dump.progress);
    (* and through the NDJSON file layer *)
    let path = temp_flight () in
    (match (Dump.append path f, Dump.append path g) with
    | Ok (), Ok () -> ()
    | _ -> Alcotest.fail "append failed");
    (match Dump.load path with
    | Ok [ x; y ] ->
      Alcotest.(check string) "file order preserved" x.Dump.kind y.Dump.kind
    | Ok fs -> Alcotest.failf "expected 2 frames, loaded %d" (List.length fs)
    | Error msg -> Alcotest.fail msg);
    Sys.remove path

let test_progress_summary () =
  let metrics name v =
    J.List [ J.Obj [ ("name", J.Str name); ("kind", J.Str "counter"); ("value", J.Int v) ] ]
  in
  let base = Dump.snapshot () in
  let f = { base with Dump.metrics = metrics "sim.simulator.steps" 1234 } in
  Alcotest.(check bool) "advanced counters are reported" true
    (List.mem ("sim steps", 1234) (Dump.progress_summary f));
  let z = { base with Dump.metrics = metrics "sim.simulator.steps" 0 } in
  Alcotest.(check bool) "zero counters are suppressed" true
    (Dump.progress_summary z = [])

let rec wait_for ?(tries = 100) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Unix.sleepf 0.05;
    wait_for ~tries:(tries - 1) pred
  end

let dump_with_reason path want =
  match Dump.load path with
  | Ok frames ->
    List.exists
      (fun f ->
        f.Dump.kind = "dump"
        && match f.Dump.reason with Some r -> r = want | None -> false)
      frames
  | Error _ -> false

let test_sigusr1_dump () =
  let path = temp_flight () in
  Dump.install_sigusr1 ();
  let wd = Dump.start_watchdog ~interval:0.02 ~path () in
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  let seen = wait_for (fun () -> dump_with_reason path "SIGUSR1") in
  Dump.stop_watchdog wd;
  Alcotest.(check bool) "SIGUSR1 produces a dump frame" true seen;
  (match Dump.load path with
  | Ok frames ->
    List.iter
      (fun f -> Alcotest.(check bool) "dump has heartbeat data" true (f.Dump.progress <> []))
      frames
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_stall_watchdog () =
  let path = temp_flight () in
  (* one beat so the watchdog has a baseline, then go quiet: the
     heartbeat sum stops advancing and the stall trips after 0.15s *)
  Cancel.checkpoint ();
  let wd = Dump.start_watchdog ~interval:0.02 ~stall:0.15 ~path () in
  let seen =
    wait_for (fun () ->
        match Dump.load path with
        | Ok frames ->
          List.exists
            (fun f ->
              f.Dump.kind = "dump"
              &&
              match f.Dump.reason with
              | Some r ->
                (* e.g. "no checkpoint progress for 0.2s" *)
                String.length r >= 5 && String.sub r 0 5 = "no ch"
              | None -> false)
            frames
        | Error _ -> false)
  in
  Dump.stop_watchdog wd;
  Alcotest.(check bool) "stalled analysis produces a dump" true seen;
  Sys.remove path

let test_watchdog_cancels_wedged_deadline () =
  (* a loop wedged between checkpoints: nobody polls, but the watchdog
     notices the deadline and cancels the token, so the next checkpoint
     (whenever it comes) unwinds *)
  let t = Cancel.create ~deadline_in:0.05 () in
  let wd = Dump.start_watchdog ~interval:0.02 ~token:t () in
  let cancelled = wait_for (fun () -> Cancel.cancelled t <> None) in
  Dump.stop_watchdog wd;
  Alcotest.(check bool) "watchdog cancelled the overdue token" true cancelled;
  match Cancel.cancelled t with
  | Some (Cancel.Deadline _) -> ()
  | _ -> Alcotest.fail "reason must be the deadline"

let test_throttle () =
  (* zero interval: the counter mask alone gates — one call in mask+1 *)
  let fired = ref 0 in
  let cb = Progress.throttle ~interval:0.0 ~mask:3 (fun _ -> incr fired) in
  for i = 1 to 1000 do
    cb i
  done;
  Alcotest.(check int) "mask passes one call in four" 250 !fired;
  (* long interval: nothing fires inside it, however many calls arrive *)
  let fired2 = ref 0 in
  let cb2 = Progress.throttle ~interval:60.0 ~mask:0 (fun _ -> incr fired2) in
  for i = 1 to 1000 do
    cb2 i
  done;
  Alcotest.(check int) "interval suppresses every call" 0 !fired2

let suite =
  ( "flight",
    [
      Alcotest.test_case "cancellation token basics" `Quick test_token_basics;
      Alcotest.test_case "deadline unwinds via checkpoint" `Quick test_deadline_unwinds;
      Alcotest.test_case "on-cancel hook fires once" `Quick test_on_cancel_hook_runs_once;
      Alcotest.test_case "hook sees the cancelled domain's spans" `Quick
        test_hook_sees_live_spans;
      Alcotest.test_case "exited domains leave the registries" `Quick
        test_registries_drop_exited_domains;
      Alcotest.test_case "pool propagates request context" `Quick
        test_pool_propagates_context;
      Alcotest.test_case "pool deadline aborts all lanes" `Quick
        test_pool_deadline_aborts_all_lanes;
      Alcotest.test_case "context id generation" `Quick test_context_ids;
      Alcotest.test_case "frame JSON round-trip" `Quick test_frame_roundtrip;
      Alcotest.test_case "progress summary extraction" `Quick test_progress_summary;
      Alcotest.test_case "SIGUSR1 dump" `Quick test_sigusr1_dump;
      Alcotest.test_case "stall watchdog" `Quick test_stall_watchdog;
      Alcotest.test_case "watchdog cancels wedged deadline" `Quick
        test_watchdog_cancels_wedged_deadline;
      Alcotest.test_case "throttled progress" `Quick test_throttle;
    ] )
