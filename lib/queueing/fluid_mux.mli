(** Frame-level fluid model of an ATM multiplexer.

    Within one frame of duration [T_s], each source emits its cells
    equispaced (the paper's deterministic smoothing) and the server
    drains at the constant rate [C] cells/frame, so both the aggregate
    input and the output are constant-rate fluids inside the frame.
    The buffer content therefore evolves piecewise linearly and each
    frame admits a closed form for both the end-of-frame workload and
    the overflow volume:

    {v
      W' = min(max(W + A - C, 0), B)
      loss = max(0, W + A - C - B)
    v}

    where [A] is the aggregate number of cells in the frame.  This is
    exact for the fluid dynamics because the net rate [A - C] has a
    constant sign within the frame, so the trajectory can only hit one
    boundary.  The cell-level granularity error is bounded by one cell
    per source per frame and is validated against {!Cell_mux} in the
    test suite. *)

type finite_result = {
  clr : float;  (** lost cells / offered cells *)
  offered_cells : float;
  lost_cells : float;
  frames : int;
}

val finite_buffer_step :
  w:float -> arrivals:float -> service:float -> buffer:float -> float * float
(** [finite_buffer_step ~w ~arrivals ~service ~buffer] is
    [(w', lost)] for one frame. *)

val clr :
  next_frame:(unit -> float) ->
  service:float ->
  buffer:float ->
  frames:int ->
  unit ->
  finite_result
(** Cell loss rate over [frames] frames of a finite-buffer multiplexer
    fed by [next_frame] aggregate frame sizes, after discarding
    [frames / 20] warm-up frames.  Each simulated frame draws the
    [queueing.mux.step] fault point once, so chaos specs cover the
    offline validation path (a no-op while {!Resilience.Fault} is
    disarmed). *)

val clr_multi :
  next_frame:(unit -> float) ->
  service:float ->
  buffers:float array ->
  frames:int ->
  unit ->
  finite_result array
(** Same arrival stream applied to several buffer sizes in one pass —
    both faster and variance-reducing when sweeping buffer sizes
    (common random numbers). *)

type workload_stats = {
  mean : float;  (** stationary mean workload, cells *)
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  frames : int;
}

val workload_stats :
  next_frame:(unit -> float) ->
  service:float ->
  frames:int ->
  ?warmup:int ->
  unit ->
  workload_stats
[@@lint.allow "U1"] (* test-only: queueing "workload stats" *)
(** Summary statistics of the stationary frame-start workload in the
    infinite-buffer system — mean and quantiles translate directly into
    queueing-delay statistics via {!Units.buffer_msec_of_cells}. *)

val workload_tail :
  next_frame:(unit -> float) ->
  service:float ->
  thresholds:float array ->
  frames:int ->
  ?warmup:int ->
  unit ->
  (float * float) array
[@@lint.allow "U1"] (* test-only: queueing "workload tail monotone" *)
(** Infinite-buffer Lindley recursion; returns
    [(x, P(W > x))] estimates for each threshold, where [W] is the
    stationary frame-start workload — the empirical buffer overflow
    probability (BOP) curve. *)
