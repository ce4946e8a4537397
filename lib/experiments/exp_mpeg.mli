(** Beyond-the-paper experiment: the Critical Time Scale of an
    MPEG-style GOP source (the future work announced in Section 6.2).

    The GOP pattern injects strong periodic correlation at lags that
    are multiples of the GOP length, on top of a slowly decaying
    scene-activity component.  The questions answered here: how does
    the CTS grow for such a source, and does the B-R loss estimate
    still track a matched DAR(p)? *)

val figure_acf : unit -> Common.figure
val figure_bop : unit -> Common.figure
val run : unit -> unit
