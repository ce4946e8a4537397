(** Fig. 2: sample paths of the aggregate of N = 10 sources — Z^0.7
    against the DAR(1) matched to its lag-1 correlation.  The LRD model
    shows the burst-within-burst structure; the DAR(1) tracks only the
    fast time scale.  We additionally report sample statistics and the
    estimated Hurst parameters of both paths, quantifying what the
    paper shows visually. *)

type summary = {
  label : string;
  mean : float;
  std : float;
  hurst_rs : float;  (** rescaled-range estimate *)
  hurst_var : float;  (** aggregated-variance estimate *)
}

val summaries : unit -> summary list
val run : unit -> unit
