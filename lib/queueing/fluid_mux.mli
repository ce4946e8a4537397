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
