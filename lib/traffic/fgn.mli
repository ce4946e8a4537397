(** Fractional Gaussian noise — the canonical exact-LRD Gaussian
    process (Taqqu), with autocorrelation
    [r(k) = (1/2)((k+1)^2H - 2 k^2H + (k-1)^2H)], i.e. the paper's
    eq. (2) with [g(T_s) = 1].

    Used as the reference exact-LRD model for validating the Weibull
    asymptotic (paper eq. 6 and Appendix) independently of the FBNDP
    construction. *)

val acf : h:float -> int -> float
(** Analytic autocorrelation at lag [k >= 0] for Hurst parameter
    [0 < h < 1]. *)

val sample_davies_harte :
  Numerics.Rng.t -> h:float -> n:int -> float array
(** Exact sampling of [n] standard-fGn values by circulant embedding
    (Davies & Harte 1987): O(n log n), exact covariance.  Raises
    [Failure] if the circulant eigenvalues go negative (does not happen
    for fGn autocovariances). *)

val sample_hosking : Numerics.Rng.t -> h:float -> n:int -> float array
[@@lint.allow "U1"] (* oracle for fgn "methods agree on variance growth" *)
(** Exact sampling by the Hosking (1984) recursive method: O(n^2),
    used in tests to cross-validate the FFT path. *)

val process :
  ?block:int -> h:float -> mean:float -> variance:float -> unit -> Process.t
(** fGn as a frame process with the given marginal moments.  Sample
    paths are produced in Davies–Harte blocks of length [block]
    (default 65536); correlation across block boundaries is not
    preserved, which biases correlations only at lags comparable to the
    block length. *)
