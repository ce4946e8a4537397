(** Section 6.2 experiment: the frequency-domain view of the CTS.

    Plots the power spectral densities of the Z^a family (identical
    low-frequency behaviour, different mid/high frequencies) and the
    buffer-induced cutoff frequency [w_c = pi / m*]: the spectral mass
    below [w_c] — which contains the entire LRD signature — does not
    influence the loss estimate at practical buffer sizes. *)

val lrd_power_ignored : a:float -> buffer_msec:float -> float
(** Fraction of the source variance living below the cutoff frequency
    at the given buffer — i.e. how much spectral mass the loss estimate
    is entitled to ignore. *)

val run : unit -> unit
