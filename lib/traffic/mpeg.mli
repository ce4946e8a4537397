(** An MPEG-style GOP-structured VBR source — the "further work" the
    paper announces in Section 6.2 (finding the CTS of MPEG-coded
    video).

    MPEG encodes frames in a periodic Group-of-Pictures pattern
    (e.g. I B B P B B P B B P B B): I frames are large, P medium, B
    small.  We model the frame-size process as

    [X_n = g_(n mod P) * Y_n]

    where [g] is the deterministic GOP weight pattern and [Y] is a
    stationary DAR(1) "activity" process capturing scene-level
    correlation.  The phase is randomised, which makes [X] stationary
    with a computable autocorrelation mixing the periodic pattern
    correlation with the activity ACF:

    {v
      E[X]        = gbar mu
      Cov(X, X+k) = m2(k) (sigma^2 rho^|k| + mu^2) - gbar^2 mu^2
      m2(k)       = (1/P) sum_j g_j g_(j+k mod P)
    v}

    The ACF therefore shows the characteristic GOP-period ripples on
    top of the activity decay.  Feeding it to [Core.Cts] answers the
    paper's open question for this source class: the CTS machinery is
    agnostic to where the correlation comes from. *)

type t

val default_gop : float array
(** A 12-frame IBBPBBPBBPBB pattern with I:P:B size ratios 5:3:1,
    normalised to mean 1. *)

val create : mean:float -> unit -> t
(** The model with overall mean frame size [mean] (cells), GOP weights
    [g] = {!default_gop} normalised once more (which moves some
    weights by an ulp), and an activity process with lag-1
    correlation 0.98 (scene persistence) and coefficient of variation
    0.12.  Raises [Invalid_argument] unless [mean > 0]. *)

val frame_mean : t -> float
val frame_variance : t -> float

val acf : t -> int -> float
(** Stationary (phase-averaged) autocorrelation; shows GOP-period
    ripples. *)

val process : t -> Process.t
(** Frame process with randomised GOP phase. *)
