(** Confidence intervals for simulation output analysis. *)

type interval = {
  point : float;   (** point estimate (sample mean) *)
  half_width : float;
  level : float;   (** confidence level, e.g. 0.95 *)
}

val mean_ci : ?level:float -> float array -> interval
(** Student-t interval for the mean of i.i.d. replications (default
    95%).  Needs at least two observations. *)

val relative_half_width : interval -> float
[@@lint.allow "U1"] (* test-only: misc "ci helpers" *)
(** [half_width / |point|]; infinity when the point estimate is 0. *)

val log10_interval : interval -> float * float
[@@lint.allow "U1"] (* test-only: misc "ci helpers" *)
(** The interval endpoints mapped through [log10], clipping the lower
    endpoint at a tiny positive value — convenient for loss-rate plots
    on log axes. *)
