(** Radix-2 complex FFT on split real/imaginary float arrays, plus the
    real-input helpers used by the spectral Hurst estimator and the
    Davies–Harte fractional-Gaussian-noise generator. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n] (with [next_pow2 0 = 1]). *)

val forward : re:float array -> im:float array -> unit
(** In-place forward DFT of the complex signal [re + i im].  Both
    arrays must have the same power-of-two length.  Convention:
    [X_k = sum_n x_n exp(-2 pi i n k / N)] (no normalisation). *)

val inverse : re:float array -> im:float array -> unit
(** In-place inverse DFT including the [1/N] normalisation, so
    [inverse (forward x) = x] up to rounding. *)

val periodogram : float array -> (float * float) array
(** [periodogram x] is the sequence of pairs [(w_j, I(w_j))] where
    [I(w) = |sum_n (x_n - mean) exp(-i w n)|^2 / (2 pi n)] is the
    periodogram of the mean-centred signal, evaluated at the angular
    frequencies [w_j = 2 pi j / m] of the power-of-two padded grid
    ([m = next_pow2 n], [j = 1 .. m/2]).  Zero padding evaluates the
    exact DTFT of the finite signal at a finer grid, so every returned
    ordinate is a true periodogram value. *)

val convolve : float array -> float array -> float array
[@@lint.allow "U1"] (* test-only: fft "convolution vs naive" *)
(** Linear convolution of two real signals via zero-padded FFT;
    result length is [length a + length b - 1]. *)
