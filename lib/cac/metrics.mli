(** Per-engine operational counters for the CAC engine.

    Decision latency has one store: the process-wide
    [cac.engine.decision_latency_us] registry histogram (summed over
    all engines and domains; read it through {!Obs.Registry} or
    {!Obs.Export}).  This instance keeps only what a process-wide
    registry cannot give per engine — admit/reject/release/fallback
    counts and a running latency sum — so its size is fixed however
    many decisions it records.  Per-link counts live in the
    [cac.engine.link.*] registry series. *)

type t

val create : unit -> t

val record_admit : t -> latency:float -> unit
(** [latency] in seconds, as measured around the decision. *)

val record_reject : t -> latency:float -> unit
val record_release : t -> unit

val record_fallback : t -> unit
(** Count one degraded (peak-rate, fail-closed) decision.  The
    process-wide [cac.guard.fallbacks] counter is ticked by
    {!Resilience.Guard} at the decision site. *)

val admits : t -> int
[@@lint.allow "U1"] (* observed by cac "metrics consistency" *)

val rejects : t -> int
[@@lint.allow "U1"] (* observed by cac "metrics consistency" *)

val releases : t -> int
[@@lint.allow "U1"] (* observed by cac "engine memory bounded under churn" *)

val fallbacks : t -> int
(** Degraded decisions recorded on this instance. *)

val decisions : t -> int
(** [admits + rejects]. *)

val blocking_probability : t -> float
(** [rejects / decisions]; 0 when no decisions were made. *)

val latency_sum_us : t -> float
(** Total decision latency recorded on this instance, microseconds.
    The mean over a run is the change in this sum divided by the
    change in {!decisions}. *)

val latency_mean_us : t -> float
(** Mean decision latency in microseconds; 0 when empty. *)

val print : ?label:string -> t -> unit
(** Human-readable summary, routed through the process
    {!Obs.Sink.human_sink}, so [--quiet] silences it. *)
