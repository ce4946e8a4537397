(** Special mathematical functions needed by the traffic models and the
    large-deviations machinery: gamma-family functions, the error
    function, and Gaussian / Student-t distribution helpers. *)

val log_gamma : float -> float
(** [log_gamma x] is [ln (Gamma x)] for [x > 0], computed with the
    Lanczos approximation (relative error below 1e-13 over the range
    used here). *)

val gamma : float -> float
[@@lint.allow "U1"] (* test-only: special "gamma reflection formula" *)
(** [gamma x] is the Gamma function for [x > 0] (and via reflection for
    negative non-integer [x]). *)

val log_factorial : int -> float
(** [log_factorial n] is [ln n!], exact summation for small [n] and
    [log_gamma] beyond.  [n >= 0]. *)

val erf : float -> float
(** Error function, absolute error below 1.2e-7 (Abramowitz & Stegun
    7.1.26 with symmetry). *)

val erfc : float -> float
(** Complementary error function [1 - erf x]. *)

val normal_cdf : float -> float
[@@lint.allow "U1"] (* oracle for special "quantile inverts cdf" *)
(** Standard normal cumulative distribution function. *)

val normal_quantile : float -> float
(** [normal_quantile p] is the inverse standard normal CDF for
    [0 < p < 1] (Acklam's rational approximation, relative error below
    1.15e-9). *)

val student_t_quantile : df:int -> float -> float
(** [student_t_quantile ~df p] is the inverse CDF of Student's t with
    [df > 0] degrees of freedom, via the Cornish–Fisher style expansion
    of Hill (1970).  Used for simulation confidence intervals. *)

val pow : float -> float -> float
[@@lint.allow "U1"] (* test-only: special "pow matches **" *)
(** [pow x y] is [x ** y] with the conventions [pow 0. y = 0.] for
    [y > 0.] and [pow x 0. = 1.]; asserts [x >= 0.]. *)
