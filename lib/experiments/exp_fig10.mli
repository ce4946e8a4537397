(** Fig. 10: accuracy of the two large-buffer asymptotics.  For the
    DAR(1) model matched to Z^0.975 (N = 30, c = 538), compares the
    Bahadur–Rao asymptotic, the Large-N asymptotic, and the simulated
    finite-buffer CLR.  The paper's observations to verify: the three
    curves are parallel; B-R is roughly one order of magnitude below
    Large-N; and both infinite-buffer asymptotics overshoot the
    finite-buffer CLR by about two orders of magnitude. *)

val run : unit -> unit
