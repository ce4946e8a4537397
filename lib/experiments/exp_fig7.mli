(** Fig. 7: the same comparison as Fig. 6 pushed far beyond practical
    buffer sizes — where the two LRD claims come from.  L eventually
    out-predicts every DAR(p) because the Z^a decay rate bends over to
    L's from roughly B = 40 msec; the crossover buffer at which that
    happens is itself reported, making "beyond practical consideration"
    quantitative. *)

val crossover_msec : a:float -> p:int -> float option
(** Smallest wide-grid buffer (msec) at which the absolute
    log10-BOP error of L (vs Z^a) drops below that of DAR(p). *)

val run : unit -> unit
