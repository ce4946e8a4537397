(** The paper's four VBR video source models (Section 3, Table 1).

    All four share the same Gaussian frame-size marginal — mean 500
    cells/frame, variance 5000 (cells/frame)^2, at 25 frames/s
    (T_s = 40 ms) — so any difference in queueing behaviour is due to
    autocorrelation alone:

    - [z ~a]: FBNDP(alpha = 0.8, H = 0.9) + DAR(1) with first-lag [a],
      equal variance split (v = 1).  Varying [a] moves the short-term
      correlations while the LRD tail is fixed.
    - [v ~v]: FBNDP(alpha = 0.9) + DAR(1) with the DAR lag-1 chosen so
      the lag-1 correlation of the sum is the same for every [v].
      Varying [v] moves the weight of the LRD tail while short-term
      correlations stay put.
    - [s ~a ~p]: DAR(p) exactly matching the first [p] autocorrelations
      of [z ~a] — the parsimonious Markov model of Claim 2.
    - [l ()]: FBNDP-only exact-LRD model whose correlation tail matches
      [z]'s (alpha = 0.72, H = 0.86).

    Derived parameters (T_0, A, R, the DAR fits, the lag-1-preserving
    [a(v)]) are computed, not hard-coded, and reproduce Table 1. *)

val ts : float
(** Frame duration: 0.04 s. *)

val frame_mean : float
(** 500 cells/frame. *)

type composite = {
  process : Process.t;
  fbndp : Fbndp.params;  (** the LRD component *)
  dar_a : float;  (** lag-1 correlation of the DAR(1) component *)
  v : float;  (** variance ratio sigma_X^2 / sigma_Y^2 *)
}

val z : a:float -> composite
(** [z ~a] for [a] in (0, 1); the paper uses 0.7, 0.9, 0.975, 0.99. *)

val z_values : float list
(** The four values of [a] used in the paper. *)

val v : v:float -> composite
(** [v ~v] for [v > 0]; the paper uses 0.67, 1, 1.5.  The DAR lag-1 is
    solved so that the composite lag-1 correlation equals that of the
    [v = 1], [a = 0.8] reference. *)

val v_values : float list
(** The three values of [v] used in the paper. *)

val s : a:float -> p:int -> Process.t
(** DAR(p) matched to the first [p] autocorrelations of [z ~a]. *)

val s_params : a:float -> p:int -> Dar.params
(** The fitted (rho, a_1..a_p), as reported in Table 1. *)

val l : unit -> Process.t
(** The exact-LRD comparator (alpha = 0.72, M = 30). *)

val l_params : unit -> Fbndp.params
