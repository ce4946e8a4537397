(** Section 6.1 experiment: effect of the frame-size marginal.

    The paper argues its conclusions survive heavier-tailed marginals
    because, once bandwidth is adjusted to restore the operating point,
    buffer behaviour differences are again driven by correlations.  We
    test this directly by simulating DAR(1) multiplexers with Gaussian,
    negative-binomial (Heyman–Lakshman) and gamma marginals of equal
    mean and variance and equal correlation structure. *)

val run : unit -> unit
