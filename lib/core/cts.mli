(** The Critical Time Scale (CTS) — the paper's central concept.

    For a multiplexer with per-source buffer [b], per-source bandwidth
    [c] and source mean [mu], the Bahadur–Rao rate function is

    [I(c,b) = inf_(m >= 1)  (b + m (c - mu))^2 / (2 V(m))]

    and the minimiser [m*_b] is the Critical Time Scale: the number of
    frame autocorrelations that determine the overflow probability.
    Correlations at lags beyond [m*_b] — in particular the entire LRD
    tail once the buffer is small — do not affect the loss estimate at
    all.

    The key structural facts proved in the paper and surfaced by this
    module: [m*_b] is finite for any source with [V(m) = o(m^2)]
    (Markov or LRD alike), equals 1 at [b = 0], and is non-decreasing
    in [b]. *)

type analysis = {
  m_star : int;  (** the Critical Time Scale *)
  rate : float;  (** I(c, b), the per-source decay rate *)
  scanned_up_to : int;
      (** the last [m] the scan examined: where its stopping rule held,
          or the hard cap [2_000_000] *)
  capped : bool;
      (** the scan reached the hard cap before its stopping rule held:
          [m_star] and [rate] are the best of the scanned range only,
          so the rate may be overstated *)
}

val objective : Variance_growth.t -> mu:float -> c:float -> b:float -> int -> float
(** [objective vg ~mu ~c ~b m] is [(b + m (c - mu))^2 / (2 V(m))]. *)

val analyze : Variance_growth.t -> mu:float -> c:float -> b:float -> analysis
(** Computes [I(c,b)] and [m*_b].  Requires [c > mu] (stability with
    positive spare capacity).

    The scan stops on a certificate, the paper's finiteness argument
    made exact.  After step [k], the table's tail bound
    ({!Variance_growth.tail_bound}) caps every later lag, hence
    [V(m)] for every [m > k] by a quadratic in [m], hence the objective
    from below by a ratio whose infimum over [m > k] has a closed
    form.  The scan stops once that infimum is at least the running
    minimum (times [1 + 1e-9], for rounding): no later [m] can then
    change [m*_b] or the rate.  A step whose bound quadratic is not
    increasing from [k + 1] (a negatively correlated table) does not
    test.

    Where the tail gives no bound ([`Unknown] tails, or a
    [`Decreasing] one past {!Variance_growth.monotone_ceiling}) the
    scan keeps a heuristic: stop once the objective is twice its
    running minimum and [m > 8 argmin + 64].  That is sound for the
    unimodal objectives of monotone ACFs but misses a dip at long
    lags.  Either way the scan ends by [m = 2_000_000]; a scan that
    ends there without its rule holding reports [capped], and
    {!Bahadur_rao.evaluate} refuses to price it.

    The scan is one loop over the table's prefix sums that allocates
    nothing per step: it fills the table exactly as far as
    [scanned_up_to - 1].  Its [m*_b] and rate are bit-identical to
    scanning {!objective} with {!Numerics.Optimize.integer_argmin}
    over the same range. *)

val certificate :
  Variance_growth.t -> mu:float -> c:float -> b:float -> int -> float
(** [certificate vg ~mu ~c ~b k] is the lower bound that {!analyze}
    proves after step [k] on [objective vg ~mu ~c ~b m] for every
    [m > k] (up to rounding), from lags [1 .. k-1] and the table's
    tail bound; [neg_infinity] where it proves none.  The scan stops
    at the first [k] where it reaches the running minimum.  Exposed so
    the tests can hold the bound to the objective. *)

val curve :
  Variance_growth.t ->
  mu:float ->
  c:float ->
  buffers:float array ->
  (float * analysis) array
(** [m*_b] and [I(c,b)] along a buffer sweep (paper Fig. 4). *)

val lrd_closed_form : h:float -> mu:float -> c:float -> b:float -> float
(** The Appendix's continuous approximation of the CTS for an exact-LRD
    Gaussian source: [m* = H b / ((1 - H)(c - mu))].  For [h = 1/2]
    this reduces to the AR(1) constant [b / (c - mu)]. *)
