(** Independent-replication simulation output analysis, mirroring the
    paper's methodology (Section 5.5: 60 replications of half a million
    frames each).  Each replication gets its own RNG substream. *)

type 'a run = Numerics.Rng.t -> 'a
(** One replication: a function of its private generator. *)

val runs : seed:int -> reps:int -> 'a run -> 'a array
(** [runs ~seed ~reps f] evaluates [f] on [reps] independent
    substreams of a master generator. *)

val curve_ci :
  seed:int ->
  reps:int ->
  float array run ->
  Stats.Ci.interval array
(** Replicated vector estimate (e.g. CLR at each buffer size):
    per-component 95% Student-t confidence intervals.  Every
    replication must return an array of the same length. *)
