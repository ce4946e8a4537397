(** Admissible region through the online CAC engine: Markov vs LRD
    source models at 10/20/30 msec buffers (paper sec. 5.4 remark),
    with a replayed connection workload per grid cell. *)

val run : unit -> unit
