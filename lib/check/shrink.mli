(** Greedy minimization of a failing (net, point) pair, and rendering the
    result as a reproducer the DSL parser accepts.

    The shrinker knows nothing about {e why} the pair fails: the caller
    supplies [still_fails], and every candidate that keeps failing (and
    still satisfies the candidate net's constraint system) is accepted.
    Two passes run to a fixpoint: a structure pass that drops one
    transition at a time (then prunes places left without arcs), and a
    point pass that rounds each binding to 1 or to a small integer. *)

module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn

val minimize :
  ?structure:bool ->
  still_fails:(Tpn.t -> Sampler.point -> bool) ->
  Tpn.t ->
  Sampler.point ->
  Tpn.t * Sampler.point
(** Greedy fixpoint of both passes. [structure:false] (default [true])
    keeps the net fixed and only shrinks the point — needed when the
    failure is pinned to an externally supplied expression whose symbols
    must keep existing. *)

val reproducer : Tpn.t -> Sampler.point -> string
(** A [.tpn] snippet: the point bound into the net (so every time and
    frequency is a literal) preceded by comment lines recording the
    binding. Parses back through {!Tpan_dsl.Parser.parse_string}. *)
