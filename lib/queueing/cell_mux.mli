(** Exact cell-level ATM multiplexer: a G/D/1/B queue fed by the merged
    cell streams of [N] frame-synchronised sources, each emitting its
    per-frame cells equispaced over the frame (deterministic
    smoothing), served at a deterministic rate.

    This is the paper's literal simulation model.  It costs O(cells log
    cells) per frame, so it is used to validate the fluid approximation
    ({!Fluid_mux}) at moderate scale rather than to run the full
    experiment grid.  Like {!Fluid_mux}, every simulated frame draws
    the [queueing.mux.step] fault point once. *)

type result = {
  clr : float;
  offered_cells : int;
  lost_cells : int;
  frames : int;
}

val clr :
  sources:(unit -> float) array ->
  service_cells_per_frame:float ->
  buffer_cells:int ->
  ts:float ->
  frames:int ->
  unit ->
  result
(** [sources] yield per-frame cell counts (rounded to integers >= 0);
    an arriving cell is dropped when [buffer_cells] cells are already
    waiting (the cell in service occupies no buffer slot).  Losses are
    counted over [frames] frames after [frames / 20] warm-up
    frames. *)
