(** End-to-end multiplexing scenarios: N homogeneous sources of a given
    model into a finite buffer — the experiment unit of the paper's
    simulation section. *)

type t = {
  model : Traffic.Process.t;  (** one source *)
  n : int;  (** number of multiplexed sources *)
  c : float;  (** bandwidth per source, cells/frame *)
  ts : float;  (** frame duration, seconds *)
}

val make : model:Traffic.Process.t -> n:int -> c:float -> ts:float -> t

val service : t -> float
(** Total link capacity [N * c] in cells/frame. *)

val buffers_of_msec : t -> float array -> float array
(** Convert per-figure buffer axes (msec) into total cells. *)

val clr_curve :
  t ->
  buffers_msec:float array ->
  frames:int ->
  reps:int ->
  seed:int ->
  Stats.Ci.interval array
(** Simulated cell loss rate at each buffer size: [reps] independent
    replications of [frames] frames each, common random numbers across
    buffer sizes within a replication. *)
