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
      (** how far the certified search examined the objective *)
}

val objective : Variance_growth.t -> mu:float -> c:float -> b:float -> int -> float
(** [objective vg ~mu ~c ~b m] is [(b + m (c - mu))^2 / (2 V(m))]. *)

val analyze :
  ?margin:int -> Variance_growth.t -> mu:float -> c:float -> b:float -> analysis
(** Computes [I(c,b)] and [m*_b].  Requires [c > mu] (stability with
    positive spare capacity).  The scan continues until the index
    exceeds [margin * argmin + 64] with the objective at twice the
    running minimum (default [margin = 8]), or at [m = 2_000_000]; for
    the monotone-ACF sources of interest the objective is unimodal and
    this is a comfortable certificate.

    The scan is one loop over the table's prefix sums that allocates
    nothing per step: it fills the table exactly as far as
    [scanned_up_to - 1], and its results are bit-identical to scanning
    {!objective} with {!Numerics.Optimize.integer_argmin} under the
    same stopping rule. *)

val curve :
  ?margin:int ->
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
