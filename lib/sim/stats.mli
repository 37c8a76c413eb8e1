(** Online statistics for simulation outputs. *)

(** Welford running mean/variance. *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  (** Sample (n-1) variance; 0 for fewer than two observations. *)

  val std_error : t -> float
  (** [sqrt variance / sqrt n]. *)

  val ci95 : t -> float * float
  (** Normal-approximation 95% confidence interval for the mean. *)
end

(** Time-weighted average of a piecewise-constant signal. *)
module Time_weighted : sig
  type t

  val create : unit -> t

  val observe : t -> at:float -> float -> unit
  (** Record that the signal takes the given value from time [at] onward.
      Observations must arrive in non-decreasing time order. *)

  val close : t -> at:float -> unit
  val average : t -> float
end
