(** Fig. 3: analytic autocorrelation functions.
    (a) V^v for v in (0.67, 1, 1.5) — nearly identical short lags;
    (b) Z^a for all a plus L — identical long-lag tails;
    (c) DAR(p) matched to Z^0.975 — exact first-p-lag agreement;
    (d) DAR(p) matched to Z^0.7. *)

val figure_a : unit -> Common.figure
val run : unit -> unit
