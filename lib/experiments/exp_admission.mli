(** The paper's Section 5.4 remark made into an experiment: translate
    BOP differences into admissible-connection counts.

    "This difference becomes negligible when the loss rate is
    translated to the number of admissible VBR video connections, which
    is why the DAR(1) model provides accurate prediction of the number
    of admissible connections for LRD traces."  Each series gives the
    max connections on a fixed link vs buffer size, per model. *)

val max_count_gap : target_clr:float -> int
(** Largest |N_model - N_Z| over DAR(p) models and practical buffers. *)

val run : unit -> unit
