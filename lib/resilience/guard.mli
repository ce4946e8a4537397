(** Containment combinators and circuit breakers: the policy half of
    the resilience layer.

    {!Fault} manufactures failures; this module bounds their blast
    radius.  Everything here is deterministic by default — deadlines
    are eval-count budgets, breaker cooldowns are decision counts — so
    guarded runs replay bit-identically from a seed, unlike wall-clock
    timeouts.  Long-running servers can opt a breaker into wall-clock
    cooldowns ({!Breaker.create}'s [cooldown_s]); that mode trades the
    replay guarantee for time-based recovery.

    All counters land in {!Obs.Registry} under [cac.guard.*]:

    - [cac.guard.caught] — exceptions absorbed by {!protect};
    - [cac.guard.fallbacks] — degraded (fail-closed) decisions taken;
    - [cac.guard.breaker_trips] — Closed → Open transitions;
    - [cac.guard.breaker_fast_fails] — calls short-circuited while Open;
    - [cac.guard.breaker_probes] — Half-open trial calls;
    - [cac.guard.breaker_recoveries] — Half-open → Closed transitions. *)

exception Budget_exhausted of string
(** Raised by {!Budget.tick} past the limit; payload is the label. *)

exception Non_finite of string
(** Raised by {!finite} on NaN or infinite kernel output, so numeric
    corruption flows through the same containment path as a raise. *)

val finite : label:string -> float -> float
(** Identity on finite floats; raises {!Non_finite} otherwise. *)

val protect : label:string -> fallback:(exn -> 'a) -> (unit -> 'a) -> 'a
(** [protect ~label ~fallback f] runs [f ()], absorbing any exception
    into [fallback exn] (and a [cac.guard.caught] tick).
    [Out_of_memory] and [Stack_overflow] are never absorbed. *)

val record_fallback : unit -> unit
(** Tick [cac.guard.fallbacks]; called by whoever takes a degraded
    decision (the engine's fail-closed path). *)

val fallbacks : unit -> int
(** Merged [cac.guard.fallbacks] value across all domains. *)

(** Deterministic deadlines: a budget of evaluation tickets, spent one
    {!Budget.tick} at a time.  Wrap an iterative kernel's inner loop
    with a budget to bound its work without consulting a clock. *)
module Budget : sig
  type t

  val create : ?label:string -> int -> t
  (** [create n] allows [n] ticks; [n < 0] is unlimited. *)

  val tick : t -> unit
  (** Spend one ticket; raises {!Budget_exhausted} when none remain. *)

  val exhausted : t -> bool
end

(** A per-resource circuit breaker over a deterministic decision
    counter.

    - {b Closed}: calls run normally; [threshold] {e consecutive}
      failures trip the breaker.
    - {b Open}: calls fail fast ([Error Tripped]) for the cooldown —
      by default the next [cooldown] calls; with [cooldown_s], a
      wall-clock duration — so the caller degrades (fail-closed)
      instead of hammering a broken kernel.
    - {b Half-open}: after the cooldown, one call is let through as a
      probe.  Success closes the breaker; failure re-opens it for
      another cooldown. *)
module Breaker : sig
  type t
  type state = Closed | Open | Half_open
  type error = Tripped | Failed of exn

  val create :
    ?threshold:int ->
    ?cooldown:int ->
    ?cooldown_s:float ->
    ?label:string ->
    unit ->
    t
  (** Defaults: [threshold = 5] consecutive failures, [cooldown = 64]
      fast-failed calls before the first probe.  Passing [cooldown_s]
      switches the breaker to wall-clock cooldowns: once tripped it
      fast-fails until [cooldown_s] seconds have elapsed on
      {!Obs.Clock.monotonic_ns}, then probes — the right mode for
      long-running servers, where a quiet resource should recover by
      time, not by absorbing [cooldown] more calls.  Wall-clock mode
      is {e not} deterministic under replay; the eval-count default
      is.  Raises [Invalid_argument] on a negative or non-finite
      [cooldown_s]. *)

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

  val wall_clock : t -> bool
  [@@lint.allow "U1"]
  (* observed by resilience "breaker wall-clock cooldowns" *)
  (** [true] when the breaker was created with [cooldown_s]. *)

  val cooldown_remaining_s : t -> float option
  [@@lint.allow "U1"]
  (* observed by resilience "breaker wall-clock cooldowns" *)
  (** Seconds until a wall-clock breaker will accept a probe; [Some 0.]
      when due, [None] while not Open or in eval-count mode. *)

  val state_name : state -> string
  (** ["closed"], ["open"] or ["half-open"]. *)

  val state_of_name : string -> state option
  (** Inverse of {!state_name}; [None] on an unknown name. *)

  val force : t -> state -> unit
  (** [force t s] restores a persisted breaker state without touching
      trip counters or telemetry — crash recovery re-arms a breaker
      where the snapshot left it.  Forcing [Open] re-arms the full
      cooldown (eval count, or wall-clock from now). *)
end
