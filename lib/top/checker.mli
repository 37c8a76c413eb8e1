(** Facade entry point for the three-way differential checker.

    Re-exports {!Tpan_check} under the [Tpan] namespace and adds the
    net-level plumbing the CLI needs: load a {!Query.net},
    resolve the delivery transition (explicitly, from the model registry,
    or by the zero-frequency-conflict heuristic), and run
    {!Tpan_check.Check.check_tpn}. *)

module Check = Tpan_check.Check
module Gen = Tpan_check.Gen
module Sampler = Tpan_check.Sampler
module Shrink = Tpan_check.Shrink

val check_source :
  ?config:Check.config ->
  ?delivery:string ->
  Query.net ->
  (Check.outcome, Error.t) result
