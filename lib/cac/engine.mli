(** The online connection-admission-control engine.

    An engine owns a registry of {!Link}s, a table of live connections,
    a {!Decision_cache} shared by every link, and {!Metrics}.  It
    answers admit/release/query requests against live state:

    - {b admit}: would the link still meet its CLR target with one
      more connection of the given class?  If yes, the connection is
      established and a connection id returned.
    - {b release}: tear down a connection by id, restoring the link
      state exactly.
    - {b query}: non-mutating versions of the same decision, plus
      utilisation accounting.

    {2 Decision rule}

    For a link with capacity [C] (cells/frame), buffer [B] (cells) and
    CLR target [clr], a candidate mix is accepted when:

    - the mix is homogeneous (one class, [n] connections): the
      Bahadur–Rao overflow probability of [n] sources at [(C, B)] is
      at most [clr] (exactly {!Core.Admission.max_admissible}'s
      criterion);
    - the mix is heterogeneous: the sum over classes of
      [n_k * eb_k(n_k)] is at most [C], where [eb_k] is the per-source
      effective bandwidth ({!Core.Admission.effective_bandwidth_per_source})
      of [n_k] class-[k] sources alone on [(C, B)] at [clr].  Additive
      effective bandwidths are mildly conservative — each class is
      priced as if it had to meet the target by itself.

    Both primitives are memoised in the decision cache: the
    Bahadur–Rao evaluation under key [(class, b, c-per-source, n)] and
    the effective bandwidth under [(class, B, clr, n)].  Since an
    engine's reachable state space is small and heavily revisited,
    steady-state decisions are O(1) hash lookups.  A kernel result
    that is NaN or infinite is {e never} inserted — the failed compute
    raises first, so retries recompute instead of replaying corruption.

    {2 Fail-closed degradation}

    Admission at CLR <= 1e-6 is a safety property: the test must never
    silently fail {e open}.  Every kernel evaluation therefore runs
    behind a per-(link, class) {!Resilience.Guard.Breaker} with
    bounded retry inside it.  A kernel that raises, exhausts its
    retries, or returns a non-finite value counts as a breaker
    failure, and the decision {e degrades} to peak-rate allocation:
    the candidate mix is admitted only if
    [sum n_k * peak_k <= C], with [peak_k] the class's
    {!Source_class.peak} proxy — cruder and strictly more conservative
    in spirit, and independent of the numerics that just failed.
    After [breaker_threshold] consecutive failures the breaker opens
    and decisions skip the kernel entirely for [breaker_cooldown]
    calls, then a half-open probe retries it; recovery closes the
    breaker.  Degraded verdicts carry [degraded = true] and tick
    [cac.guard.fallbacks].

    {2 Durability hook}

    The engine itself is memory-only, but every mutation can be
    mirrored to an external journal: {!set_journal} installs a hook
    that receives each completed {!op} (link added/removed, connection
    admitted/released) inside whatever critical section the caller
    runs the engine under.  The hook must not raise and must not block
    — [Persist.Store] satisfies both by pushing to an in-memory queue
    that the ack's durability barrier writes, outside the critical
    section.  {!apply} is the replay
    inverse: it re-executes an [op] on a cold engine without
    re-deciding it (no admission test, no admit/reject counters), and
    {!export}/{!restore} move whole-engine snapshots for
    checkpointing.

    {2 Engines are single-domain}: share nothing across [Domain.spawn]
    (see {!Sweep}). *)

type t

(** A completed engine mutation, as recorded by the journal hook and
    re-executed by {!apply}.  Links and classes are referenced by
    their stable names so the value survives process restarts. *)
type op =
  | Op_add_link of {
      id : string;
      capacity : float;
      buffer : float;
      target_clr : float;
    }
  | Op_remove_link of string
  | Op_admit of { conn : int; link : string; cls : string }
  | Op_release of int

type reject_reason =
  | Unstable  (** mean load of the candidate mix would reach capacity *)
  | Clr_exceeded  (** the loss estimate for the candidate mix misses the target *)

type decision = Admitted of int  (** connection id *) | Rejected of reject_reason

type verdict = {
  admissible : bool;
  reason : reject_reason option;
  log10_bop : float option;
      (** Bahadur–Rao log10 BOP of the candidate mix (homogeneous
          path, kernel healthy) *)
  required_bw : float option;
      (** total effective bandwidth of the candidate mix, cells/frame
          (heterogeneous path) — or the total {e peak-rate} allocation
          when [degraded] *)
  degraded : bool;
      (** the Bahadur–Rao/effective-bandwidth kernel was unavailable
          (exception, non-finite result, or open breaker) and the
          decision fell back to peak-rate allocation *)
}

val create :
  ?cache_capacity:int ->
  ?clock:(unit -> float) ->
  ?max_retries:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:int ->
  ?breaker_cooldown_s:float ->
  unit ->
  t
(** [cache_capacity] bounds the decision cache (default 4096; 0
    disables caching).  [clock] supplies wall-clock seconds for latency
    metrics (default {!Obs.Clock.wall}).  [max_retries] (default 1)
    bounds kernel re-attempts per decision; [breaker_threshold]
    (default 5) is the consecutive-failure trip point and
    [breaker_cooldown] (default 32) the number of fast-failed
    decisions before a half-open probe.  [breaker_cooldown_s] switches
    the per-(link, class) breakers to wall-clock cooldowns of that
    many seconds (see {!Resilience.Guard.Breaker.create}) — meant for
    [cts serve], where recovery should not wait for traffic. *)

val add_link :
  t -> id:string -> capacity:float -> buffer:float -> target_clr:float -> Link.t
(** Register a link.  Raises [Invalid_argument] if the id is taken. *)

val add_link_msec :
  t ->
  id:string ->
  capacity:float ->
  buffer_msec:float ->
  target_clr:float ->
  Link.t
(** Same, with the buffer given as a maximum drain delay in msec. *)

val remove_link : t -> string -> unit
(** Drop a link, all its connections, and its circuit breakers.  Every
    stale connection is accounted as a release (engine metrics and the
    link's registry series), so active-connection accounting stays
    exact. *)

val link : t -> string -> Link.t
(** Raises [Invalid_argument] on unknown ids. *)

val links : t -> Link.t list
(** Every link, sorted by id. *)

val mem_link : t -> string -> bool
(** Whether a link with this id is registered (one hash lookup). *)

val evaluate : t -> link:string -> cls:Source_class.t -> verdict
(** The admission decision for one more [cls] connection, without
    mutating link or connection state (or instance metrics).  It {e
    does} advance resilience state: breaker counters, and the
    [cac.guard.*] / [cac.fault.*] telemetry. *)

val would_admit : t -> link:string -> cls:Source_class.t -> bool

val admit : t -> link:string -> cls:Source_class.t -> decision
(** Decide, record metrics (including decision latency and degraded
    fallbacks), and on success establish the connection.
    Exception-safe: if anything raises mid-admission the link and
    connection tables are left exactly as before the call. *)

val release : t -> conn:int -> unit
(** Raises [Invalid_argument] for unknown connection ids. *)

val connection : t -> int -> (Link.t * Source_class.t) option

val active_connections : t -> int

val fill : t -> link:string -> cls:Source_class.t -> int
(** Admit [cls] connections until the first rejection; returns how many
    were admitted by this call.  With an empty homogeneous link this
    reproduces {!Core.Admission.max_admissible}. *)

val breaker_state :
  t -> link:string -> cls:Source_class.t -> Resilience.Guard.Breaker.state option
(** The (link, class) circuit breaker's state; [None] until the pair's
    first kernel evaluation. *)

type breaker_snapshot = { b_link : string; b_class : string; b_state : string }
(** [b_state] is a {!Resilience.Guard.Breaker.state_name}. *)

val breakers : t -> breaker_snapshot list
(** Every (link, class) breaker that has seen a kernel evaluation,
    sorted by (link, class). *)

val metrics : t -> Metrics.t
val cache_stats : t -> Decision_cache.stats

(** {2 Durability: journal hook, replay, state transfer} *)

val set_journal : t -> (op -> unit) option -> unit
(** Install (or clear) the journal hook.  The hook is called with each
    completed mutation, after the engine state has moved; it must not
    raise and must not block (see the module preamble). *)

val journaled : t -> bool
(** Whether a journal hook is installed. *)

val apply : t -> op -> unit
(** Re-execute a journaled mutation during recovery: mutates link and
    connection state (and the live-connection gauge) without running
    the admission test or advancing admit/reject telemetry.
    [Op_admit] takes the recorded connection id and bumps the id
    allocator past it.  Raises [Invalid_argument] on an op
    inconsistent with current state — duplicate link or connection id,
    unknown link, class or connection — and when a journal hook is
    armed (replay must target a cold engine; recovery counts such
    skips instead of crashing). *)

type link_state = {
  l_id : string;
  l_capacity : float;  (** cells/frame *)
  l_buffer : float;  (** cells *)
  l_target_clr : float;
}

type conn_state = { c_conn : int; c_link : string; c_class : string }

type state = {
  s_links : link_state list;  (** sorted by id *)
  s_conns : conn_state list;  (** sorted by connection id *)
  s_breakers : breaker_snapshot list;  (** {!breakers} *)
  s_next_conn : int;
}

val export : t -> state
(** Snapshot the full engine state.  All lists are sorted, so equal
    engine states export structurally (and byte-) identically —
    recovery determinism is checked against this. *)

val restore : t -> state -> unit
(** Load an exported state into a cold, empty engine: links first,
    then connections (via {!apply}), then breaker states (via
    {!Resilience.Guard.Breaker.force}, without touching trip
    telemetry).  Raises [Invalid_argument] if the engine already has
    links or connections, has a journal hook armed, or the state is
    internally inconsistent. *)
