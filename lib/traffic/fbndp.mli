(** The Fractal-Binomial-Noise-Driven Poisson process (FBNDP) of Ryu &
    Lowen — the paper's exact-LRD traffic substrate.

    [M] independent fractal ON/OFF processes are summed into a fractal
    binomial noise (FBN) rate function; a Poisson process modulated by
    [R * FBN(t)] produces cell arrivals; counting arrivals per frame of
    duration [T_s] yields the frame-size process [L_n] with

    {v
      H        = (alpha + 1) / 2
      lambda   = R M / 2                          (cells/sec)
      E[L]     = lambda T_s
      Var[L]   = (1 + (T_s/T_0)^alpha) lambda T_s
      r(k)     = T_s^alpha / (T_s^alpha + T_0^alpha)
                 * (1/2) nabla^2 (k^(alpha+1))
    v}

    where [T_0] (the fractal onset time) is a closed-form function of
    [(alpha, A, R)].  This module works in both directions: physical
    parameters [(alpha, A, M, R)] to statistics, and target statistics
    [(alpha, lambda, T_0, M)] or moments back to physical parameters. *)

type params = private {
  alpha : float;  (** fractal exponent, in (0, 1); H = (alpha+1)/2 *)
  a : float;      (** ON/OFF distribution breakpoint A (seconds) *)
  m : int;        (** number of superposed ON/OFF processes *)
  r : float;      (** arrival rate of one ON process (cells/sec) *)
}

val of_target : alpha:float -> lambda:float -> t0:float -> m:int -> params
(** The paper's parameterisation: mean rate [lambda] (cells/sec) and
    fractal onset time [t0] (seconds); solves for [A] and [R]. *)

val of_moments :
  alpha:float -> mean:float -> variance:float -> m:int -> ts:float -> params
(** Frame-statistics parameterisation: choose [lambda = mean / ts] and
    [t0] such that a frame of duration [ts] has the given mean and
    variance.  Requires [variance > mean] (the Poisson floor). *)

val hurst : params -> float
val lambda : params -> float

val fractal_onset_time : params -> float
(** [T_0 = { alpha (alpha+1) (2-alpha)^-1 [(1-alpha) e^(2-alpha) + 1]
    / (R A^(1-alpha)) }^(1/alpha)]. *)

val frame_mean : params -> ts:float -> float
val frame_variance : params -> ts:float -> float

val frame_acf : params -> ts:float -> int -> float
(** Analytic frame autocorrelation [r k], [k >= 0].  [frame_acf t ~ts]
    computes [g(T_s)] once and returns the per-lag function, so
    partially apply it when tabulating many lags. *)

val g_factor : params -> ts:float -> float
(** The weight [g(T_s) = T_s^alpha / (T_s^alpha + T_0^alpha)] of the
    exact-LRD autocorrelation form (paper eq. 2). *)

val process : params -> ts:float -> Process.t
(** The frame-size process: simulation by event-driven ON/OFF tracking
    plus Poisson thinning per frame, analytic moments as above.  Its
    tail is [`Decreasing] for [alpha] in [[0.2, 0.9]], where the
    computed {!frame_acf} stays non-increasing through lag 65,536, and
    [`Unknown] outside it.

    [spawn rng] gives source [i] substream [i] of [rng] (its residual
    period, then its phase, then one uniform per period) and splits
    the Poisson generator off [rng] after them.  A frame runs one
    kernel over the [M] sources, drawing each period inline: it
    allocates at most the boxed uniform of each period it ends
    (2 words) and a constant for the Poisson draw.  The stream equals,
    bit for bit, [M] {!Fractal_onoff} sources composed with
    {!Numerics.Dist.poisson}, which the tests check. *)
