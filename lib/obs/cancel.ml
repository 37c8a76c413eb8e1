(* Cooperative cancellation tokens.

   A token is a cross-domain cell: [None] while the request is live,
   [Some reason] once somebody cancelled it. A separate claim flag picks
   the one canceller, which runs the on-cancel hook {e before} it
   publishes the reason, so no checkpoint raises while the hook (a dump
   writer) is still reading every domain's span stack. Hot loops poll the
   ambient token with {!checkpoint}; the poll costs one [Domain.DLS]
   lookup and an [Atomic.get] (plus a clock read when the token carries
   a deadline), so it is cheap enough to leave permanently in the
   per-state / per-elimination loops. With no token installed — every
   run not under [--deadline] — the checkpoint is a DLS load and a
   [None] match.

   Checkpoints also bump a per-domain heartbeat counter. The watchdog
   reads the heartbeat sum to detect a stalled analysis (a loop that
   stopped reaching its checkpoints), and the diagnostic dump reports
   the live domains' counts as progress evidence. *)

type reason =
  | Deadline of float (* the configured budget, seconds *)
  | Stalled of float (* seconds without checkpoint progress *)
  | Interrupted of string (* signal name or explicit cancel *)

exception Cancelled of reason

let reason_to_string = function
  | Deadline s -> Printf.sprintf "deadline of %gs exceeded" s
  | Stalled s -> Printf.sprintf "no checkpoint progress for %gs" s
  | Interrupted what -> "interrupted by " ^ what

type token = {
  claimed : bool Atomic.t; (* set by the one canceller, before its hook *)
  state : reason option Atomic.t; (* published after the hook *)
  deadline : float option; (* absolute Mclock instant *)
  budget : float option; (* the relative budget, for messages *)
}

let create ?deadline_in () =
  {
    claimed = Atomic.make false;
    state = Atomic.make None;
    deadline = Option.map (fun d -> Mclock.now () +. d) deadline_in;
    budget = deadline_in;
  }

let cancelled t = Atomic.get t.state
let deadline t = t.deadline
let budget t = t.budget

(* First-cancellation hook: fired exactly once per token, by whichever
   domain wins the claim. The CLI registers a diagnostic-dump writer here
   so the dump is taken while every domain's span stack is still live —
   by the time the [Cancelled] exception reaches a handler the stacks
   have unwound. Hook exceptions are swallowed: cancellation must not
   fail because diagnostics did. *)
let on_cancel : (reason -> unit) option ref = ref None
let set_on_cancel f = on_cancel := f

let fire_hook r =
  match !on_cancel with
  | Some f -> ( try f r with _ -> ())
  | None -> ()

let cancel t r =
  if Atomic.compare_and_set t.claimed false true then begin
    fire_hook r;
    Atomic.set t.state (Some r)
  end

(* ---------------- ambient token + heartbeats ---------------- *)

(* Per-domain heartbeat counters, registered on a domain's first
   checkpoint. When the domain exits, its row leaves the list and its
   count folds into [retired], both under [beats_lock]: a server that
   spawns a domain per connection keeps only live rows, and the sum the
   watchdog compares (retired plus live rows, read under the same lock)
   never decreases. *)
type beat = { dom : int; count : int ref }

let beats : beat list ref = ref []
let retired = ref 0
let beats_lock = Mutex.create ()

let beat_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let count = ref 0 in
      let b = { dom = (Domain.self () :> int); count } in
      Mutex.protect beats_lock (fun () -> beats := b :: !beats);
      Domain.at_exit (fun () ->
          Mutex.protect beats_lock (fun () ->
              retired := !retired + !count;
              beats := List.filter (( != ) b) !beats));
      count)

let heartbeats () =
  List.rev_map (fun b -> (b.dom, !(b.count))) !beats |> List.sort compare

let heartbeat_total () =
  Mutex.protect beats_lock (fun () ->
      List.fold_left (fun acc b -> acc + !(b.count)) !retired !beats)

let active_key : token option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set t = Domain.DLS.get active_key := t
let current () = !(Domain.DLS.get active_key)

let check () =
  match !(Domain.DLS.get active_key) with
  | None -> ()
  | Some t -> (
    match Atomic.get t.state with
    | Some r -> raise (Cancelled r)
    | None -> (
      match t.deadline with
      | Some dl when Mclock.now () >= dl -> (
        cancel t (Deadline (Option.value ~default:0. t.budget));
        (* published if this domain won the claim; a domain that lost it
           keeps running until the winner's hook is done *)
        match Atomic.get t.state with Some r -> raise (Cancelled r) | None -> ())
      | _ -> ()))

let checkpoint () =
  incr (Domain.DLS.get beat_key);
  check ()
