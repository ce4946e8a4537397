(** Sample autocovariance / autocorrelation estimation.

    The biased (divide-by-n) estimator is used throughout, as is
    standard for time series: it guarantees a positive semi-definite
    autocovariance sequence. *)

val autocorrelation : float array -> max_lag:int -> float array
(** Autocovariance normalised by lag-0; element 0 is 1. *)

val autocorrelation_fft : float array -> max_lag:int -> float array
(** Same estimator computed via FFT (O(n log n)); preferable when
    [max_lag] is large. *)

val partial_autocorrelation : float array -> max_lag:int -> float array
[@@lint.allow "U1"] (* test-only: stats "pacf cutoff for AR(1)" *)
(** Partial ACF via the Durbin–Levinson recursion on the sample ACF;
    element 0 is 1 by convention. *)
