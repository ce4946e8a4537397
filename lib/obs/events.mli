(** GC-pause profiling over OCaml 5's [runtime_events] ring.

    {!start} spawns one dedicated consumer domain that subscribes to
    runtime phase begin/end pairs and folds each domain's {e
    outermost} phase interval into a pause:

    - [runtime.ev.gc.pause.us{domain=…,phase=minor|major|other}] —
      per-domain pause-duration histograms (µs, 0–50 ms), whose
      count and sum are the pause count and cumulative pause time;
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
    to one 5 ms poll interval of delay (the consumer's cadence), which
    bounds the attribution error of a single request.

    The ring itself is the runtime's file
    ([$OCAML_RUNTIME_EVENTS_DIR/<pid>.events], or [./<pid>.events]),
    readable by external eventring tools such as [olly]. *)

type phase = Minor | Major | Other

type pause = {
  p_domain : int;  (** ring buffer index (≈ domain id, see above) *)
  p_phase : phase;  (** classification of the outermost runtime phase *)
  p_dur_ns : int64;
  p_wall : float;  (** consumer wall clock when the pause completed *)
}

(** {1 Lifecycle} *)

type t

val start : unit -> t
(** Start event collection ([Runtime_events.start]) and spawn the
    consumer domain, which reads the ring every 5 ms.  Idempotent: if
    a consumer is already running, returns it unchanged. *)

val stop : t -> unit
(** Flag the consumer, join its domain (it drains the ring once more
    on the way out, so completed pauses are never lost), and pause
    runtime event generation.  The stop flag is polled between sleeps
    — no condition variable, so no lost wakeup; worst case [stop]
    waits one poll interval.  Idempotent. *)

val running : unit -> bool

(** {1 Reading} *)

val cumulative_pause_ns : unit -> int
(** Total pause nanoseconds the consumer has attributed to the {e
    calling} domain's ring so far; [0] when no consumer runs.  Two
    reads bracketing a request bound its GC overlap (late by at most
    one poll interval).  A freshly spawned domain's first bracket may
    straddle its ring-handshake resolution and over-attribute once;
    callers clamp deltas to [>= 0].  Per-domain totals for export are
    the [runtime.ev.gc.pause.us{domain,phase}] histograms' counts and
    sums. *)

val top_pauses : unit -> pause list
(** The longest pauses seen since {!start} (at most 32), longest
    first. *)

val debug_json : unit -> Json.t
(** The [/debug/vars] section: [running] alone when no consumer runs;
    otherwise also the poll interval and the longest pauses
    ([top_pauses]). *)
