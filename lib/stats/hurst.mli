(** Hurst-parameter estimation.

    These estimators reproduce the methodology used in the LRD-video
    literature (Beran et al., Leland et al.): the paper's premise is
    that VBR video traces measure H > 0.5, so we verify that our model
    generators actually produce the Hurst parameters their analytic
    forms promise. *)

type estimate = {
  h : float;           (** estimated Hurst parameter *)
  r_squared : float;   (** quality of the underlying log–log fit *)
  points : (float * float) array;
      (** the (scale, statistic) pairs that were regressed, for
          diagnostic plotting *)
}

val rescaled_range : ?min_block:int -> ?num_scales:int -> float array -> estimate
(** Classical R/S analysis: the series is cut into blocks of
    geometrically increasing size; within each block the rescaled range
    R/S is computed and averaged; H is the slope of
    [log E(R/S)] vs [log block].  Default blocks from [min_block = 8]
    up to n/4 over [num_scales = 12] scales. *)

val aggregated_variance : ?min_block:int -> ?num_scales:int -> float array -> estimate
(** Variance-time method: the variance of the m-aggregated series
    scales as [m^(2H-2)]; H = 1 + slope/2. *)

val periodogram : ?fraction:float -> float array -> estimate
(** Spectral method: for an LRD series the spectral density behaves as
    [f^(1-2H)] near zero, so the slope of the log–log periodogram over
    the lowest [fraction] (default 0.1) of frequencies gives
    H = (1 - slope)/2. *)

val variance_of_sums : ?min_block:int -> ?num_scales:int -> float array -> estimate
[@@lint.allow "U1"] (* test-only: hurst "variance of sums on fGn" *)
(** Variance growth of partial sums: Var(sum of m terms) ~ m^(2H);
    H = slope/2.  This is the statistic the Critical Time Scale theory
    is built on (paper's V(m)). *)

val local_whittle : ?fraction:float -> float array -> estimate
[@@lint.allow "U1"] (* test-only: hurst "local whittle on fGn" *)
(** Local Whittle (Gaussian semiparametric) estimator of Robinson
    (1995): minimises
    [R(H) = log( (1/m) sum_j w_j^(2H-1) I(w_j) ) - (2H-1) (1/m) sum_j log w_j]
    over the lowest [fraction] (default 0.1) of Fourier frequencies.
    More efficient than the periodogram regression; the reported
    [points] are the periodogram ordinates used and [r_squared] is set
    to 1 - R''-based curvature is not exposed. *)
