(** Unit conversions for ATM multiplexer dimensioning.

    Internally everything is counted in cells and frames; the paper's
    figures use buffer sizes expressed as maximum delay in
    milliseconds.  A buffer of [B] cells drained at the link rate
    [C] cells/frame empties in [B / C] frames, i.e.
    [B * T_s / C] seconds. *)

val buffer_cells_of_msec :
  msec:float -> service_cells_per_frame:float -> ts:float -> float
(** Buffer size (cells) whose maximum drain time is [msec]. *)

val buffer_msec_of_cells :
  cells:float -> service_cells_per_frame:float -> ts:float -> float
