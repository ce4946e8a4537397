(** A stochastic connection-level workload for stressing the engine:
    Poisson arrivals, exponential holding times, and a weighted mix of
    source classes — the classic Erlang loss setting, with the CAC
    decision in place of a fixed trunk count.

    Everything is driven by a {!Numerics.Rng.t}, so a replay is exactly
    reproducible from a seed, and replications fan out over
    {!Queueing.Replication} substreams. *)

type spec = {
  arrival_rate : float;  (** connection attempts per second *)
  mean_holding : float;  (** mean connection lifetime, seconds *)
  requests : int;  (** connection attempts to replay *)
  mix : (Source_class.t * float) list;
      (** classes with positive sampling weights *)
}

val spec :
  ?mean_holding:float ->
  arrival_rate:float ->
  requests:int ->
  mix:(Source_class.t * float) list ->
  unit ->
  spec
(** Default: [mean_holding = 60.0]. *)

val offered_load : spec -> float
(** [arrival_rate * mean_holding]: mean number of simultaneously
    active connections the workload tries to sustain (Erlangs). *)

type result = {
  offered : int;  (** connection attempts replayed *)
  admitted : int;
  rejected : int;  (** requests the engine decided to reject *)
  errors : int;
      (** requests on which the engine {e failed} mid-decision
          (exception escaped {!Engine.admit}, or an armed
          [cac.workload.admit] fault fired).  Counted fail-closed: the
          connection is not admitted and the replay continues. *)
  degraded : int;
      (** decisions taken through the engine's peak-rate fallback
          (the {!Metrics.fallbacks} delta across this run) *)
  blocking : float;  (** (rejected + errors) / offered *)
  steady_blocking : float;
      (** same, over the post-warm-up portion (the last 80% of
          requests) *)
  cache_hit_rate : float;  (** over the whole replay *)
  steady_cache_hit_rate : float;  (** over the post-warm-up portion *)
  mean_occupancy : float;  (** time-average of active connections *)
  peak_occupancy : int;
  final_occupancy : int;
  mean_latency_us : float;  (** mean decision latency, microseconds *)
  duration : float;  (** simulated seconds *)
}

val run : Engine.t -> link:string -> spec -> Numerics.Rng.t -> result
(** Replay [spec.requests] connection attempts against [link],
    releasing each admitted connection when its exponential holding
    time expires.  The engine is used as-is (its cache may be warm).

    Crash-proof: an exception from an individual admission decision is
    counted in [errors] (and [cac.workload.errors]) and the replay
    continues — only [Out_of_memory]/[Stack_overflow] (or a failure
    outside the per-request decision, e.g. an unknown [link])
    propagate. *)
