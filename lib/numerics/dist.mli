(** Random variate generation on top of {!Rng}.

    Every sampler takes the generator explicitly so that callers control
    stream assignment (one substream per source / replication). *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate > 0] (mean [1/rate]), by inversion. *)

val gaussian : Rng.t -> mean:float -> std:float -> float
(** Normal variate via the Marsaglia polar method.  [std >= 0]. *)

val standard_gaussian : Rng.t -> float
(** Normal(0,1) variate. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson variate.  Multiplication method for small means, and the
    PTRD transformed-rejection algorithm of Hörmann (1993) for
    [mean >= 12], so sampling stays O(1) for the large per-frame cell
    counts used in the simulations.  [mean >= 0]. *)

val pareto : Rng.t -> shape:float -> scale:float -> float
[@@lint.allow "U1"] (* test-only: dist "pareto moments" *)
(** Pareto variate on [scale, infinity): P(X > x) = (scale/x)^shape. *)

val binomial : Rng.t -> n:int -> p:float -> int
[@@lint.allow "U1"] (* test-only: dist "binomial moments" *)
(** Binomial(n, p) by inversion for small [n*p] and by summation
    otherwise; intended for the modest [n] (tens) used here. *)

val geometric : Rng.t -> p:float -> int
[@@lint.allow "U1"] (* test-only: dist "geometric moments" *)
(** Number of failures before the first success, [p] in (0, 1]. *)

val gamma : Rng.t -> shape:float -> scale:float -> float
(** Gamma variate with density proportional to
    [x^(shape-1) exp(-x/scale)], by the Marsaglia–Tsang squeeze method
    (with the boosting trick for [shape < 1]). *)

val negative_binomial : Rng.t -> r:float -> p:float -> int
(** Negative binomial: number of failures before the [r]-th success,
    generalised to real [r > 0] via the gamma–Poisson mixture.
    Mean [r(1-p)/p], variance [r(1-p)/p^2].  This is the heavier-than-
    Poisson frame-size marginal used by Heyman & Lakshman for VBR
    video. *)

val negative_binomial_of_moments :
  Rng.t -> mean:float -> variance:float -> int
(** Negative binomial parameterised by moments; requires
    [variance > mean] (over-dispersion). *)

val categorical : Rng.t -> weights:float array -> int
(** Index drawn proportionally to non-negative [weights] (at least one
    strictly positive). *)

val discrete_cdf_sample : Rng.t -> cdf:float array -> int
[@@lint.allow "U1"] (* test-only: dist "discrete cdf sampling" *)
(** [discrete_cdf_sample rng ~cdf] draws an index [i] with probability
    [cdf.(i) - cdf.(i-1)]; [cdf] must be nondecreasing with final value
    1.  Binary search, O(log n). *)
