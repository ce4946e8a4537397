(** Fig. 8: simulated finite-buffer cell loss rates (fluid multiplexer,
    deterministic smoothing), N = 30, c = 538.  (a) V^v, (b) Z^a.
    Verifies the analytic ordering of Fig. 5 by simulation, including
    the common zero-buffer CLR forced by the shared marginal.

    Scale is controlled by CTS_FRAMES / CTS_REPS; the paper used 60
    replications of 500k frames. *)

val buffers_msec : float array

val run : unit -> unit
