(** A stationary frame-size process: the common interface of every VBR
    video source model in this library.

    A value of type {!t} bundles the analytic first- and second-order
    statistics of the model (mean and variance of the frame size, and
    the autocorrelation function) with a way of creating stateful
    sample-path generators.  The analytic part feeds the
    large-deviations machinery in [cts.core]; the generator feeds the
    queueing simulators. *)

type generator = unit -> float
(** Each call returns the next frame size (cells/frame).  Generators
    are stateful and must not be shared between threads. *)

type tail = [ `Decreasing | `Recurrent of int | `Unknown ]
(** What the model guarantees about its computed ACF beyond the lags
    already seen: the envelope [Core.Variance_growth] turns into a
    proof that the Critical Time Scale scan can stop (the same type
    there, shared structurally so neither library depends on the
    other).
    - [`Decreasing]: [r k >= 0] and non-increasing in [k];
    - [`Recurrent p]: for [k >= p],
      [r k = rho (w_1 r (k-1) + ... + w_p r (k-p))] with [rho < 1] and
      [w] a probability vector, so no lag exceeds the largest [|r|]
      among the last [p];
    - [`Unknown]: no envelope (periodic or negatively correlated
      ACFs, and every model whose tail no test checks). *)

type t = {
  name : string;
  mean : float;  (** E[X] in cells/frame *)
  variance : float;  (** Var[X] in (cells/frame)^2 *)
  acf : int -> float;
      (** analytic autocorrelation [r k] for [k >= 0]; [r 0 = 1] *)
  hurst : float option;
      (** analytic Hurst parameter when the model is LRD; [None] for
          short-range dependent models (H = 1/2) *)
  tail : tail;  (** the ACF's declared envelope *)
  spawn : Numerics.Rng.t -> generator;
      (** [spawn rng] creates a fresh stationary generator drawing its
          randomness from [rng] *)
}

val generate : t -> Numerics.Rng.t -> int -> float array
(** [generate t rng n] materialises [n] frames from a fresh
    generator. *)

val acf_array : t -> max_lag:int -> float array
[@@lint.allow "U1"] (* test-only: process "acf_array" *)
(** The analytic ACF tabulated for lags [0 .. max_lag]. *)

val scale : t -> float -> t
[@@lint.allow "U1"] (* test-only: process "scale" *)
(** [scale t c] multiplies every frame by [c] (mean scales by [c],
    variance by [c^2]; the ACF and its tail are unchanged). *)

val superpose : ?name:string -> t list -> t
(** Sum of independent processes: means and variances add and the ACF
    is the variance-weighted mixture of component ACFs (the paper's
    eq. 5).  The Hurst parameter of the sum is the maximum of the
    component Hurst parameters (power-law tails dominate geometric
    ones).  The tail is [`Decreasing] when every component's is, and
    [`Unknown] otherwise.  The list must be non-empty. *)

val replicate : ?name:string -> t -> int -> t
(** [replicate t n] is the superposition of [n] independent copies of
    [t]: the aggregate arrival process of [n] homogeneous sources. *)
