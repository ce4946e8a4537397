(** Descriptive statistics of samples, including the higher moments
    used to check the Gaussian-marginal property of the video models. *)

type summary = {
  n : int;
  mean : float;
  variance : float;  (** unbiased *)
  std : float;
  skewness : float;  (** sample skewness, 0 for symmetric data *)
  kurtosis_excess : float;  (** 0 for Gaussian data *)
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Full summary; the array must have at least two elements. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance of two equal-length samples. *)

val correlation : float array -> float array -> float
[@@lint.allow "U1"] (* test-only: stats "covariance and correlation" *)
(** Pearson correlation coefficient. *)
