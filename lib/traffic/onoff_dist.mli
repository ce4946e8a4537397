(** The heavy-tailed ON/OFF duration distribution of the fractal
    point-process construction (Ryu & Lowen):

    {v
      p(t) = (gamma/A) exp(-gamma t / A)                 for t <= A
      p(t) = gamma exp(-gamma) A^gamma t^-(gamma+1)      for t >  A
    v}

    with [gamma = 2 - alpha] in (1, 2): exponential body, Pareto tail of
    index [gamma], so the mean is finite but the variance is infinite —
    this is what makes the driven point process exactly long-range
    dependent with [H = (alpha + 1)/2]. *)

type t = private {
  gamma : float;  (** tail index, in (1, 2) *)
  a : float;      (** body/tail breakpoint A > 0 (seconds) *)
  mean : float;   (** E[T], closed form *)
  tail_mass : float;
      (** [P(T > A) = exp(-gamma)], the mass of the Pareto tail, which
          every {!sample} compares against. *)
  body_mass : float;
      (** [A (1 - exp(-gamma)) / gamma], the integrated survival
          function's body part. *)
  neg_a_over_gamma : float;  (** [-A / gamma], the body branch's scale *)
  inv_gamma : float;  (** [1 / gamma], the tail branch's exponent *)
  tail_scale : float;  (** [exp(-gamma) A^gamma] *)
  a_pow_1mg : float;  (** [A^(1 - gamma)] *)
  inv_1mg : float;  (** [1 / (1 - gamma)] *)
}
(** {!create} computes every constant a draw needs, so {!sample} and
    {!equilibrium_sample} each cost one uniform and one [log] or
    [**]. *)

val create : gamma:float -> a:float -> t
(** Raises [Invalid_argument] unless [1 < gamma < 2] and [a > 0]. *)

val of_alpha : alpha:float -> a:float -> t
(** [of_alpha ~alpha] is [create ~gamma:(2 - alpha)]; [alpha] in (0,1). *)

val pdf : t -> float -> float
[@@lint.allow "U1"] (* test-only: onoff "pdf integrates to 1" *)

val cdf : t -> float -> float
[@@lint.allow "U1"] (* oracle for onoff "sample quantiles" *)

val survival : t -> float -> float
(** [survival t x] is [P(T > x)]. *)

val sample : t -> Numerics.Rng.t -> float
(** Exact inverse-CDF sampling: one {!Numerics.Rng.float} [s], then
    [-A/gamma log s] when [s > tail_mass] and
    [A (tail_mass / s)^(1/gamma)] otherwise.  {!Fbndp.process} draws
    its periods with this expression written inline. *)

val equilibrium_cdf : t -> float -> float
[@@lint.allow "U1"] (* oracle for onoff "equilibrium sampling" *)
(** CDF of the equilibrium (integrated-tail) distribution
    [F_e(x) = (1/mean) * integral_0^x P(T > u) du]: the law of the
    residual duration seen by a stationary observer.  Note the
    equilibrium distribution has an infinite mean (tail index
    [gamma - 1 < 1]) — the root cause of slow simulation convergence
    for LRD traffic that the paper works around with heavy
    replication. *)

val equilibrium_sample : t -> Numerics.Rng.t -> float
(** Exact inverse-CDF sampling from the equilibrium distribution, used
    to start every ON/OFF process in steady state. *)
