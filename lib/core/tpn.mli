(** Timed Petri Nets: [Γ = (P, T, I, O, E, F, μ₀)] plus conflict-set firing
    frequencies (paper §1).

    Each transition carries an enabling time [E(t)] (how long it must stay
    continuously enabled before it {e must} begin firing — the timeout
    mechanism), a firing time [F(t)] (tokens are absorbed at firing start and
    produced [F(t)] later), and a relative firing frequency used to resolve
    conflicts probabilistically. Times and frequencies may be concrete
    rationals or symbolic variables; symbolic nets additionally carry the
    timing-constraint system that makes their analysis possible (§3). *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net

type time_spec =
  | Fixed of Q.t  (** a known delay; must be ≥ 0 *)
  | Sym of Tpan_symbolic.Var.t  (** an unknown delay, implicitly ≥ 0 *)

type freq_spec =
  | Freq of Q.t
      (** relative firing frequency; [0] means "only fires if nothing else in
          its conflict set is firable" (priority to the others) *)
  | Freq_sym of Tpan_symbolic.Var.t  (** unknown, assumed > 0 *)

type spec = { enabling : time_spec; firing : time_spec; frequency : freq_spec }

val spec :
  ?enabling:time_spec -> ?firing:time_spec -> ?frequency:freq_spec -> unit -> spec
(** Defaults: [enabling = Fixed 0], [firing = Fixed 0], [frequency = Freq 1]. *)

val fixed : Q.t -> time_spec

val sym_enabling : string -> time_spec
(** [sym_enabling "t3"] is the symbol [E(t3)]. *)

val sym_firing : string -> time_spec

type t

exception Unsupported of string
(** The net violates a modelling assumption of the paper: overlapping
    manual conflict sets, a decision between several zero-frequency
    transitions, or (detected during graph construction) a transition that
    does not disable itself/its conflict set when it fires. *)

val make :
  ?constraints:Tpan_symbolic.Constraints.t ->
  ?conflict_sets:(string list * Q.t list) list ->
  Net.t ->
  (string * spec) list ->
  t
(** [make net specs] attaches timing to a net. Every transition of [net]
    must appear exactly once in [specs] (keyed by transition name).

    Conflict sets are computed as the connected components of the structural
    conflict relation [I(ti) ∩ I(tj) ≠ ∅]; the optional [conflict_sets]
    argument only {e overrides frequencies} as a convenience and must agree
    with the structural partition.

    @raise Unsupported or [Invalid_argument] on inconsistent input. *)

(** {1 Accessors} *)

val net : t -> Net.t
val constraints : t -> Tpan_symbolic.Constraints.t

val oracle : t -> Tpan_symbolic.Oracle.t
(** The net's memoizing constraint oracle, built lazily (once) from
    {!constraints}. All symbolic ordering queries should go through it:
    verdicts agree with the direct {!Tpan_symbolic.Constraints} procedures
    but preprocessing, the witness-point filter and the verdict memo table
    make repeated queries cheap. Shared by nets derived with
    {!bind_times}. *)

val enabling : t -> Net.trans -> time_spec
val firing : t -> Net.trans -> time_spec
val frequency : t -> Net.trans -> freq_spec

val enabling_expr : t -> Net.trans -> Tpan_symbolic.Linexpr.t
val firing_expr : t -> Net.trans -> Tpan_symbolic.Linexpr.t

val enabling_q : t -> Net.trans -> Q.t
(** @raise Unsupported if symbolic. *)

val firing_q : t -> Net.trans -> Q.t

val frequency_q : t -> Net.trans -> Q.t
val frequency_poly : t -> Net.trans -> Tpan_symbolic.Poly.t

val is_zero_frequency : t -> Net.trans -> bool
(** True only for [Freq 0]; symbolic frequencies are assumed positive. *)

val is_concrete : t -> bool
(** All times and frequencies fixed. *)

val conflict_set_of : t -> Net.trans -> int
val conflict_sets : t -> Net.trans list array
(** The partition into conflict sets (singletons included). *)

val time_vars : t -> Tpan_symbolic.Var.t list
(** All symbolic time variables appearing in the net, in transition order. *)

val bind_times : t -> (string * Q.t) list -> t
(** Substitute concrete values for named symbolic times/frequencies
    (["E(t3)", "F(t5)", "f(t4)"] keys), e.g. to specialize a symbolic net for
    simulation. Constraints are checked against the binding when it makes the
    net fully concrete.
    @raise Unsupported if a binding violates the declared constraints. *)

val pp : Format.formatter -> t -> unit
