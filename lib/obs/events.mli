(** GC-pause profiling over OCaml 5's [runtime_events] ring.

    {!start} spawns one dedicated consumer domain that subscribes to
    runtime phase begin/end pairs and folds each domain's {e
    outermost} phase interval into a pause:

    - [runtime.ev.gc.pause.us{domain=…,phase=minor|major|other}] —
      per-domain pause-duration histograms (µs, 0–50 ms);
    - [runtime.ev.gc.pauses{domain,phase}] /
      [runtime.ev.gc.pause_ns{domain}] — pause count and cumulative
      pause time counters;
    - [runtime.ev.lost_events] — ring overwrites the consumer missed.

    A per-ring cumulative pause clock backs request attribution:
    {!cumulative_pause_ns} read at request start and end bounds how
    much of that request's latency the collector ate (see
    [Srv.Pool]'s [srv.http.gc_pause.us]).

    {b Ring index vs domain id.}  Events are keyed by ring buffer
    index: the runtime hands ring [i] to the domain occupying its
    internal slot [i], and recycles slots after a domain terminates —
    while [Domain.self] ids are never reused.  In a process that has
    ever joined a domain the two diverge, so a domain resolves its own
    ring through a handshake: it writes the ["cts.ring"] user event
    (carrying its id), which lands on its own ring, and the consumer
    records the (id, ring) pair.  Resolution takes at most one poll
    interval once per domain; until then the identity mapping serves —
    exact for processes whose domains all live to exit (the daemon
    spawns its workers once, up front).  Per-domain series labels
    ([domain=…]) remain ring-indexed: for long-lived domains that is
    the domain id; under domain churn a ring's history may span
    successive occupants.

    Pause timestamps come from the runtime's own event clock, so
    pauses are measured exactly — but they reach the registry with up
    to one [poll_interval_s] of delay (the consumer's cadence), which
    bounds the attribution error of a single request.

    The optional {b span bridge} ({!start}[ ~bridge:true]) re-emits
    every {!Span} begin/end as the ["cts.span"] user event, so
    external eventring tools ([olly], custom viewers, [cts events
    tail]) see this process's spans interleaved with the GC phases. *)

type phase = Minor | Major | Other

val phase_name : phase -> string

type pause = {
  p_domain : int;  (** ring buffer index (≈ domain id, see above) *)
  p_phase : phase;  (** classification of the outermost runtime phase *)
  p_dur_ns : int64;
  p_wall : float;  (** consumer wall clock when the pause completed *)
}

val pause_json : pause -> Json.t

(** {1 Lifecycle} *)

type t

val start : ?poll_interval_s:float -> ?bridge:bool -> unit -> t
(** Start event collection ([Runtime_events.start]) and spawn the
    consumer domain.  [poll_interval_s] (default 5 ms) is the
    consumer's read cadence; [bridge] (default [false]) additionally
    installs the {!Span} ring bridge.  Idempotent: if a consumer is
    already running, returns it unchanged.  Raises [Invalid_argument]
    on a non-positive or non-finite interval. *)

val stop : t -> unit
(** Flag the consumer, join its domain (it drains the ring once more
    on the way out, so completed pauses are never lost), uninstall
    the span bridge, and pause runtime event generation.  The stop
    flag is polled between sleeps — no condition variable, so no lost
    wakeup; worst case [stop] waits one poll interval.  Idempotent. *)

val running : unit -> bool

(** {1 Reading} *)

val cumulative_pause_ns : unit -> int
(** Total pause nanoseconds the consumer has attributed to the {e
    calling} domain's ring so far; [0] when no consumer runs.  Two
    reads bracketing a request bound its GC overlap (late by at most
    one poll interval).  A freshly spawned domain's first bracket may
    straddle its ring-handshake resolution and over-attribute once;
    callers clamp deltas to [>= 0]. *)

val domain_pause_ns : domain:int -> int
(** Same, for an explicit ring index.  Per-domain totals for export
    are the [runtime.ev.gc.pauses{domain,phase}] and
    [runtime.ev.gc.pause_ns{domain}] counters. *)

val top_pauses : unit -> pause list
(** The longest pauses seen since {!start} (at most 32), longest
    first. *)

val debug_json : unit -> Json.t
(** The [/debug/vars] section: running flag, poll interval, bridge
    flag, ring file path and the longest pauses ([top_pauses]). *)

val ring_file : unit -> string
(** Where this process's ring lives:
    [$OCAML_RUNTIME_EVENTS_DIR/<pid>.events] or [./<pid>.events] —
    whichever exists (the runtime snapshots the variable at process
    startup, so a post-startup [putenv] cannot move the ring) — what
    to hand to [cts events tail PID DIR]. *)

(** {1 The span bridge event}

    Exposed so a second in-process consumer (tests) or an external
    tool linking this library can decode ["cts.span"] events. *)

type span_event = { sp_enter : bool; sp_name : string }

val span_type : span_event Runtime_events.Type.t

val write_span : name:string -> enter:bool -> unit
(** Emit one bridge event directly (the {!Span} hook uses this). *)

(** {1 Cross-process attachment}

    Consume another process's ring — a live daemon started with
    [--events] — without restarting it. *)

type remote

val attach :
  dir:string ->
  pid:int ->
  ?on_pause:(pause -> unit) ->
  ?on_span:(ring:int -> name:string -> enter:bool -> unit) ->
  ?on_lost:(int -> int -> unit) ->
  unit ->
  (remote, string) result
(** Open a cursor over [dir/pid.events].  [on_pause] fires per
    completed outermost phase interval, [on_span] per decoded
    ["cts.span"] bridge event, [on_lost] when the ring overwrote
    unread events.  [Error] (with the reason) when the file does not
    exist or is not a ring. *)

val poll : remote -> int
(** Drain available events through the attach callbacks; returns how
    many were consumed.  The caller owns pacing (sleep between
    polls). *)

val detach : remote -> unit

(** {1 Pause tracking (exposed for tooling and tests)} *)

module Tracker : sig
  type t

  val create : on_pause:(pause -> unit) -> unit -> t

  val callbacks :
    ?on_span:(ring:int -> name:string -> enter:bool -> unit) ->
    ?on_lost:(int -> int -> unit) ->
    t ->
    Runtime_events.Callbacks.t
  (** Callbacks folding phase begin/end pairs into outermost-interval
      pauses; attaching mid-phase drops the partial interval instead
      of mis-measuring it. *)
end
