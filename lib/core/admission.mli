(** Connection admission control built on the Bahadur–Rao estimate —
    the paper's motivating application (real-time CAC for VBR video,
    cf. Elwalid et al.).

    The searches treat the total buffer [B] as fixed and exploit the
    monotonicity of the BOP: increasing in [N] at a fixed capacity [C]
    (more sources means less spare bandwidth per source), decreasing in
    [C] at a fixed [N]. *)

val max_admissible :
  Variance_growth.t ->
  mu:float ->
  total_capacity:float ->
  total_buffer:float ->
  target_clr:float ->
  int
(** Largest [N] with Bahadur–Rao BOP at most [target_clr]; 0 when even
    a single source misses the target.  Binary search over
    [1 .. ceil(C / mu) - 1], i.e. up to the largest [N] with
    [N mu < C] (the stability limit). *)

val required_capacity :
  Variance_growth.t ->
  mu:float ->
  n:int ->
  total_buffer:float ->
  target_clr:float ->
  float
(** Smallest total link capacity that carries [n] sources within
    [target_clr] — the aggregate effective bandwidth.  While the BOP
    decreases in the capacity, this is bit for bit the answer of
    {!reference_capacity_search} over {!capacity_margin}: the capacity
    doubled from 1.01x the mean load until admissible, then bisected to
    0.01 cells/frame.  {!capacity_search} computes it with about half
    the Bahadur–Rao evaluations, made near the threshold rather than
    close to the mean load, where the critical time scale is largest.

    Raises [Resilience.Guard.Non_finite] if an evaluation yields a NaN
    log10 BOP, or if no finite capacity is admissible. *)

val effective_bandwidth_per_source :
  Variance_growth.t ->
  mu:float ->
  n:int ->
  total_buffer:float ->
  target_clr:float ->
  float
(** [required_capacity / n]: the per-source effective bandwidth, in
    cells/frame.  Between the mean and the equivalent-peak as expected
    of any sane effective bandwidth. *)

(** {2 The capacity search}

    Both searches look for the smallest admissible total capacity
    above [mean_load], given its [margin]: a capacity is admissible
    when [margin capacity <= 0.].  They raise
    [Resilience.Guard.Non_finite] on a NaN margin, and when doubling
    would make the capacity infinite. *)

val capacity_margin :
  Variance_growth.t ->
  mu:float ->
  n:int ->
  total_buffer:float ->
  target_clr:float ->
  float ->
  float
(** [capacity_margin vg ~mu ~n ~total_buffer ~target_clr capacity] is
    [log10 BOP - log10 target_clr] for [n] sources on [capacity] (one
    Bahadur–Rao evaluation), or [infinity] when [capacity / n <= mu].
    A CTS scan cut off by its step cap still answers when its lower
    bound on the BOP misses the target ({!Bahadur_rao.evaluate_bound});
    otherwise the margin raises [Resilience.Guard.Non_finite]. *)

val reference_capacity_search :
  mean_load:float -> margin:(float -> float) -> float
(** Doubling from [1.01 mean_load] until admissible, then bisection to
    0.01 cells/frame, consulting [margin] at every point.  Returns a
    capacity [margin] found admissible. *)

val capacity_search : mean_load:float -> margin:(float -> float) -> float
(** {!reference_capacity_search}'s answer, consulting [margin] only near
    the threshold:
    + bracket it top-down from [2.02 mean_load], doubling until
      admissible, else halving the distance to [mean_load] until
      inadmissible, never below [1.01 mean_load];
    + narrow the bracket to 0.002 cells/frame with
      {!Numerics.Roots.brent} on [margin];
    + replay the reference, answering points at or below the
      bracket's inadmissible end "inadmissible" and points at or above
      its admissible end "admissible", and evaluating only the points
      in between.

    When [margin] is monotone in the capacity the replay makes the
    reference's every decision, so the answer is the same float.  The
    answer is always a capacity [margin] found admissible: an inferred
    answer is evaluated, and if it fails, [margin] was not monotone, so
    the reference runs instead and [admission.replay_fallbacks] counts
    it. *)
