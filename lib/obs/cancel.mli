(** Cooperative deadline/cancellation tokens for long-running analyses.

    A {!token} is a cross-domain cancellation cell, optionally carrying
    an absolute deadline. Hot loops call {!checkpoint} at cheap,
    regular points (per interned state, per elimination round, every
    few thousand simulator steps); when the ambient token has been
    cancelled — or its deadline has passed — the checkpoint raises
    {!Cancelled} and the loop unwinds cleanly through its [Fun.protect]
    finalizers. With no ambient token (any run not under [--deadline])
    a checkpoint is one domain-local load and a [None] match.

    Tokens usually arrive through {!Context}, which installs the
    request context's token as the ambient one; [Tpan_par.Pool]
    propagates the context (and therefore the token) into worker
    domains, so a deadline crossing aborts every lane of a parallel
    stage. *)

type reason =
  | Deadline of float  (** the configured budget, in seconds *)
  | Stalled of float  (** seconds without checkpoint progress *)
  | Interrupted of string  (** signal name or explicit cancel *)

exception Cancelled of reason
(** Raised by {!checkpoint} once the ambient token is cancelled. Mapped
    to [Tpan_core.Error.Deadline_exceeded] (exit code 6) by the error
    classifiers. *)

val reason_to_string : reason -> string

type token

val create : ?deadline_in:float -> unit -> token
(** A live token. [deadline_in] is a relative budget in seconds,
    resolved against {!Mclock.now} at creation. *)

val cancel : token -> reason -> unit
(** Cancel the token (idempotent — the first call claims it and its
    reason wins). The claiming call runs the {!set_on_cancel} hook, then
    publishes the reason, before returning; later calls return at once,
    possibly before the reason is published. *)

val cancelled : token -> reason option
(** The published reason: [None] until the claiming {!cancel}'s hook has
    returned. *)

val deadline : token -> float option
(** The absolute {!Mclock} instant of the deadline, when one was set. *)

val budget : token -> float option
(** The relative budget [deadline_in] was created with. *)

val set_on_cancel : (reason -> unit) option -> unit
(** Register a process-wide first-cancellation hook. It runs exactly
    once per token, on the domain that claims the token, {e before} the
    reason is published — and no {!checkpoint} raises before that, so a
    diagnostic-dump writer registered here sees every domain's live
    span stack. Hook exceptions are swallowed. *)

(** {1 Ambient token} *)

val set : token option -> unit
(** Install the calling domain's ambient token (domain-local). Usually
    called via [Context.set]; [Tpan_par.Pool] calls it in workers. *)

val current : unit -> token option

val checkpoint : unit -> unit
(** The cancellation poll. Bumps this domain's heartbeat counter, then:
    no ambient token — return; reason published — raise {!Cancelled};
    token deadline passed — {!cancel} it and raise once the reason is
    published (a domain that loses the claim keeps running until the
    claimer's hook has returned). *)

val check : unit -> unit
(** {!checkpoint} without the heartbeat, for a loop that waits on
    another domain's work rather than making progress of its own: it
    raises as {!checkpoint} does, but a wedged build that it waits on
    still reads as a stall to the watchdog. *)

(** {1 Heartbeats}

    Every checkpoint bumps a per-domain counter, registered on the
    domain's first checkpoint. When the domain exits, its count folds
    into a retired total and its row is dropped, so the rows stay
    bounded by the live domains. The stall watchdog watches the sum; the
    diagnostic dump reports the per-domain values. *)

val heartbeats : unit -> (int * int) list
(** [(domain id, checkpoint count)] per live domain that has
    checkpointed, sorted by domain id. Racy reads — values may lag by a
    few counts. *)

val heartbeat_total : unit -> int
(** Checkpoints ever made: the retired total plus every live row, read
    under one lock, so it never decreases as domains exit. *)
