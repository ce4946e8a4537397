(** Fixed-width histograms, used for marginal-distribution checks. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal cells;
    out-of-range observations are tallied separately. *)

val add : t -> float -> unit

val counts : t -> int array
(** In-range counts, one per bin. *)

val underflow : t -> int
val overflow : t -> int
val total : t -> int

val lo : t -> float
val hi : t -> float

val merge : t -> t -> t
[@@lint.allow "U1"] (* test-only: obs "histogram: merge is associative" *)
(** Fresh histogram with the summed counts of both arguments. *)

val bin_centers : t -> float array
[@@lint.allow "U1"] (* test-only: misc "histogram density" *)

val density : t -> float array
[@@lint.allow "U1"] (* test-only: misc "histogram density" *)
(** Counts normalised to a probability density over [lo, hi): each
    entry is [count / (total * width)] where [total] includes
    out-of-range observations. *)

val chi_square_vs : t -> cdf:(float -> float) -> float
[@@lint.allow "U1"] (* oracle for stats "chi-square vs gaussian" *)
(** [chi_square_vs t ~cdf] is the Pearson chi-square statistic of the
    histogram against the continuous distribution with the given CDF
    (expected mass from CDF differences; under/overflow folded into the
    edge bins).  Degrees of freedom are [bins - 1] when the reference
    distribution is fully specified. *)
