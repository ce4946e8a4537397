(** Sample autocovariance / autocorrelation estimation.

    The biased (divide-by-n) estimator is used throughout, as is
    standard for time series: it guarantees a positive semi-definite
    autocovariance sequence. *)

val autocorrelation : float array -> max_lag:int -> float array
[@@lint.allow "U1"] (* oracle for stats "acf fft vs direct" *)
(** Autocovariance normalised by lag-0; element 0 is 1.  The direct
    O(n * max_lag) sum; {!autocorrelation_fft} is the estimator the
    program uses. *)

val autocorrelation_fft : float array -> max_lag:int -> float array
(** Same estimator computed via FFT (O(n log n)); preferable when
    [max_lag] is large. *)
