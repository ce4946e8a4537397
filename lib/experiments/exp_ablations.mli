(** Ablation experiments beyond the paper's figures, exercising the
    design choices called out in DESIGN.md.

    - {b weibull}: the closed-form Weibull approximation (paper eq. 6)
      against the numerically minimised Bahadur–Rao machinery, on pure
      fGn (g = 1) and on the FBNDP model L — validates the Appendix
      derivation and shows where the large-[m*] approximation bends.
    - {b cts_closed_form}: the Appendix CTS slope
      [m* = H b / ((1-H)(c-mu))] against the exact integer minimiser.
    - {b fluid_vs_cell}: fluid multiplexer CLR against the exact
      cell-level G/D/1/B simulator on a common scenario.
    - {b marginal}: CTS sensitivity to the marginal's variance
      (Section 6.1 discussion) — doubling sigma^2 at fixed correlations
      moves the operating point but not the smallness of the CTS. *)

val run : unit -> unit
