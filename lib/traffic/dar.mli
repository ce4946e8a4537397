(** The discrete autoregressive process DAR(p) of Jacobs & Lewis
    (1978), the paper's Markov video model.

    The process is [S_n = V_n * S_(n - A_n) + (1 - V_n) * eps_n] where
    [V_n] is Bernoulli(rho), [A_n] picks a lag in [1..p] with
    probabilities [a_1..a_p], and [eps_n] is an i.i.d. draw from the
    marginal distribution.  Whatever the marginal, the autocorrelation
    function satisfies the Yule–Walker-type recursion
    [r(k) = sum_i rho * a_i * r(k - i)], so a DAR(p) can match the
    first [p] autocorrelations of any target process while keeping the
    exact target marginal. *)

type marginal = {
  sample : Numerics.Rng.t -> float;  (** i.i.d. innovation sampler *)
  mean : float;
  variance : float;
}

val gaussian_marginal : mean:float -> variance:float -> marginal
(** The paper's frame-size marginal: Normal(mean, variance). *)

val negative_binomial_marginal : mean:float -> variance:float -> marginal
(** The Heyman–Lakshman frame-size marginal (paper Section 6.1):
    negative binomial with the given moments; requires
    [variance > mean].  Heavier-tailed than the Gaussian at equal
    moments. *)

val gamma_marginal : mean:float -> variance:float -> marginal
(** Gamma frame sizes with the given moments — a continuous
    heavier-than-Gaussian alternative. *)

type params = {
  rho : float;  (** P(V_n = 1); for p = 1 this is the lag-1 correlation *)
  weights : float array;  (** a_1 .. a_p, non-negative, summing to 1 *)
}

val validate : params -> unit
(** Raises [Invalid_argument] if [rho] is outside [0, 1) or the weights
    are not a probability vector. *)

val acf : params -> int -> float
[@@lint.allow "U1"] (* oracle for dar "memoized acf" *)
(** Analytic autocorrelation at lag [k >= 0] by the Yule–Walker
    recursion (O(k p) on first evaluation; results are memoized
    internally per call chain — use {!acf_fun} for repeated queries). *)

val acf_fun : params -> int -> float
(** A memoizing closure over {!acf}: repeated and increasing-lag
    queries cost amortised O(p) each. *)

val make : ?name:string -> marginal -> params -> Process.t
(** The DAR(p) frame process with the given marginal and correlation
    parameters.  Short-range dependent: [hurst = None].  Its tail is
    [`Decreasing] for [p = 1] (r(k) = rho^k) and [`Recurrent p]
    otherwise. *)

val fit : target_acf:(int -> float) -> p:int -> params
(** [fit ~target_acf ~p] solves the Yule–Walker system on the first [p]
    target autocorrelations under the DAR constraint
    [sum phi_i = rho, a_i = phi_i / rho].  Raises [Invalid_argument] if
    the solution is not a valid DAR parameterisation (some [phi_i < 0]
    or [rho] outside [0, 1)) — in that situation the target cannot be
    matched exactly by a DAR(p) and a lower order should be used. *)

val fit_process :
  ?name:string -> marginal -> target_acf:(int -> float) -> p:int -> Process.t
(** Convenience: {!fit} followed by {!make}. *)
