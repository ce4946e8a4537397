(** Fig. 9: simulated finite-buffer CLR of Z^a against its matched
    DAR(p) models and L (N = 30, c = 538) — the simulation counterpart
    of Fig. 6, showing that the cheap Markov models track the LRD
    traffic's loss over the practical range. *)

val run : unit -> unit
