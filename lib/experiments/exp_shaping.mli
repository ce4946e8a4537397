(** Extension experiment: smoothing/shaping as a traffic-engineering
    knob, quantified with the CTS machinery.

    A source shaper that averages a window of [w] frames adds
    [(w - 1) * 40] msec of delay once, at the source, but strips
    short-term variability from what every downstream hop sees.  Since
    the paper shows loss is governed by exactly those short-term
    correlations, shaping buys loss improvements at every hop — while
    leaving the (irrelevant) LRD tail untouched.

    The scenario uses the paper's end-to-end budget of ~200 msec for
    real-time video over [hops = 3] nodes: the budget not consumed by
    source shaping is split evenly into per-hop buffers, and the figure
    reports the per-hop B-R loss estimate as the window grows — the
    real engineering trade-off. *)

val run : unit -> unit
