(** Frame-level traffic shaping: a moving-average smoother.

    A shaping buffer that spreads each w-frame window's cells evenly
    emits [Y_n = (1/w) sum_(i=0..w-1) X_(n-i)].  The paper's
    deterministic smoothing is the [w = 1] intra-frame case; larger [w]
    models GOP smoothers and shaping buffers that trade [w - 1] frames
    of added delay for reduced short-term variability.

    The smoothed process stays in the {!Process.t} family exactly:

    {v
      E[Y]        = E[X]
      Cov_Y(k)    = (1/w^2) sum_(i,j) Cov_X(k + i - j)
                  = (1/w^2) sum_(d=-(w-1)..w-1) (w - |d|) Cov_X(k + d)
    v}

    so the CTS/Bahadur–Rao machinery applies to shaped sources with no
    approximation.  Smoothing cannot create or destroy long-range
    dependence — it only reshapes short-term correlations — which is
    precisely the paper's distinction made mechanical. *)

val smooth : ?name:string -> Process.t -> window:int -> Process.t
(** [smooth p ~window] is the moving-average of [window >= 1]
    consecutive frames of [p].  [window = 1] returns an equivalent
    process.  The generator consumes one input frame per output frame
    (steady-state pipeline; the first [window - 1] outputs average a
    partially warm pipeline seeded with independent start-up draws,
    which standard simulation warmup absorbs). *)

val added_delay_frames : window:int -> float
[@@lint.allow "U1"] (* test-only: shaper "delay accounting" *)
(** Worst-case delay added by the shaper: [window - 1] frames. *)
