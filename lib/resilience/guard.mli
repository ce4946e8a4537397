(** Containment combinators and circuit breakers: the policy half of
    the resilience layer.

    {!Fault} manufactures failures; this module bounds their blast
    radius.  Everything here is deterministic — breaker cooldowns are
    decision counts, not wall-clock durations — so guarded runs replay
    bit-identically from a seed.  The kernel a breaker guards is a
    pure function of its inputs, so its failures repeat on the same
    inputs rather than clearing with time.

    All counters land in {!Obs.Registry} under [cac.guard.*]:

    - [cac.guard.caught] — exceptions absorbed by {!protect};
    - [cac.guard.fallbacks] — degraded (fail-closed) decisions taken;
    - [cac.guard.breaker_trips] — Closed → Open transitions;
    - [cac.guard.breaker_fast_fails] — calls short-circuited while Open;
    - [cac.guard.breaker_probes] — Half-open trial calls;
    - [cac.guard.breaker_recoveries] — Half-open → Closed transitions. *)

exception Non_finite of string
(** Raised by {!finite} on NaN or infinite kernel output, so numeric
    corruption flows through the same containment path as a raise. *)

val finite : label:string -> float -> float
(** Identity on finite floats; raises {!Non_finite} otherwise. *)

val protect : fallback:(exn -> 'a) -> (unit -> 'a) -> 'a
(** [protect ~fallback f] runs [f ()], absorbing any exception
    into [fallback exn] (and a [cac.guard.caught] tick).
    [Out_of_memory] and [Stack_overflow] are never absorbed. *)

val record_fallback : unit -> unit
(** Tick [cac.guard.fallbacks]; called by whoever takes a degraded
    decision (the engine's fail-closed path). *)

val fallbacks : unit -> int
(** Merged [cac.guard.fallbacks] value across all domains. *)

(** A per-resource circuit breaker over a deterministic decision
    counter.

    - {b Closed}: calls run normally; 5 {e consecutive} failures
      trip the breaker.
    - {b Open}: the next 32 calls fail fast ([Error Tripped]), so
      the caller degrades (fail-closed) instead of hammering a broken
      kernel.
    - {b Half-open}: after the cooldown, one call is let through as a
      probe.  Success closes the breaker; failure re-opens it for
      another cooldown. *)
module Breaker : sig
  type t
  type state = Closed | Open | Half_open
  type error = Tripped | Failed of exn

  val create : unit -> t
  (** A closed breaker. *)

  val call : t -> (unit -> 'a) -> ('a, error) result
  (** Run [f] under the breaker.  [Error Tripped] means the breaker
      short-circuited the call; [Error (Failed exn)] means [f] ran and
      raised (asynchronous exceptions — [Out_of_memory],
      [Stack_overflow] — propagate instead). *)

  val state : t -> state
  val consecutive_failures : t -> int
  [@@lint.allow "U1"]
  (* observed by resilience "breaker trip, half-open, recovery" *)

  val trips : t -> int
  [@@lint.allow "U1"]
  (* observed by resilience "breaker trip, half-open, recovery" *)

  val state_name : state -> string
  (** ["closed"], ["open"] or ["half-open"]. *)

  val state_of_name : string -> state option
  (** Inverse of {!state_name}; [None] on an unknown name. *)

  val force : t -> state -> unit
  (** [force t s] restores a persisted breaker state without touching
      trip counters or telemetry — crash recovery re-arms a breaker
      where the snapshot left it.  Forcing [Open] re-arms the full
      cooldown. *)
end
