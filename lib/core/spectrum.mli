(** Input power spectrum and cutoff frequency — the frequency-domain
    reading of the Critical Time Scale (paper Section 6.2, connecting
    the CTS with the cutoff frequency omega_c of Li & Hwang's
    filtered-input-rate analysis).

    For a stationary frame-size process with variance sigma^2 and
    autocorrelation r(k), the (one-sided, discrete-time) power spectral
    density is

    [S(w) = sigma^2 (1 + 2 sum_(k>=1) r(k) cos(k w))],  [w] in [0, pi].

    Low frequencies carry the long-term correlations; a queue with a
    small buffer low-pass-filters nothing and reacts to the whole
    spectrum, while the rate function's minimiser [m*] corresponds to a
    time window of [m*] frames, i.e. to frequencies above roughly
    [pi / m*].  The {!cutoff_frequency} of a buffer is that induced
    frequency: spectral content below it does not affect the loss
    estimate. *)

type t

val create : acf:(int -> float) -> variance:float -> ?max_lag:int -> unit -> t
(** Tabulates the ACF up to [max_lag] (default 8192) for spectrum
    evaluation; the tail beyond is treated as zero, which biases only
    frequencies below [pi / max_lag]. *)

val psd : t -> float -> float
(** [psd t w] for [w] in (0, pi].  Evaluated by direct cosine sum with
    Kahan compensation. *)

val total_power : t -> float
[@@lint.allow "U1"] (* test-only: spectrum "total power" *)
(** [sigma^2] — equals the integral of the PSD over [-pi, pi] divided
    by [2 pi]. *)

val low_frequency_power : t -> below:float -> float
(** Fraction of the variance carried by frequencies [|w| <= below],
    by numerical integration of the PSD. *)

val cutoff_frequency_of_cts : m_star:int -> float
(** The frequency [pi / m*] induced by a Critical Time Scale of [m*]
    frames. *)

val cutoff_frequency :
  t -> mu:float -> c:float -> b:float -> float
(** Convenience: run the CTS analysis for the buffer and translate the
    minimiser into its cutoff frequency. *)
