(** Frame traces: materialised sample paths, used by the examples to
    emulate working from a measured video trace. *)

type t = { frames : float array  (** frame sizes, cells/frame *) }

val of_process : Process.t -> Numerics.Rng.t -> n:int -> t

val mean : t -> float
val variance : t -> float

val acf : t -> max_lag:int -> float array
(** Sample autocorrelation of the trace. *)
