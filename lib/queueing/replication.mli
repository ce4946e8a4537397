(** Independent-replication simulation output analysis, mirroring the
    paper's methodology (Section 5.5: 60 replications of half a million
    frames each).  Each replication gets its own RNG substream. *)

type 'a run = Numerics.Rng.t -> 'a
(** One replication: a function of its private generator. *)

val runs : seed:int -> reps:int -> 'a run -> 'a array
(** [runs ~seed ~reps f] evaluates [f] on [reps] independent
    substreams of a master generator. *)

val mean_ci : ?level:float -> seed:int -> reps:int -> float run -> Stats.Ci.interval
[@@lint.allow "U1"] (* test-only: queueing "replication CI" *)
(** Replicated scalar estimate with a Student-t confidence interval. *)

val curve_ci :
  ?level:float ->
  seed:int ->
  reps:int ->
  float array run ->
  Stats.Ci.interval array
(** Replicated vector estimate (e.g. CLR at each buffer size):
    per-component confidence intervals.  Every replication must return
    an array of the same length. *)
