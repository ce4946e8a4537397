(** Seeded, deterministic fault injection.

    The admission kernels feeding the CAC engine are numerical code
    driven by fitted traffic models; the resilience layer exists so
    that a kernel raising, returning NaN, or stalling has {e defined}
    behaviour.  This module is how those failures are manufactured on
    demand: a process-wide registry of {b injection points} — named
    call sites threaded through {!Core.Bahadur_rao.evaluate},
    {!Cac.Decision_cache.find_or_add}, {!Cac.Workload.run},
    {!Cac.Sweep.run}, the queueing simulators' per-frame step
    ([queueing.mux.step]), the HTTP serving pool's dispatch path
    ([srv.http.handler]) and the durability layer's write paths
    ([persist.wal.append], [persist.wal.fsync],
    [persist.snapshot.write]) — each of which can be armed with raise,
    NaN, latency or (at write-shaped points) short-write / torn-write
    faults at a given rate.

    {2 Fault-spec grammar}

    A spec is a comma-separated list of rules:

    {v
    spec  ::= rule ("," rule)*
    rule  ::= point "=" kind (":" rate)? (":" param)?
    kind  ::= "raise" | "nan" | "latency" | "short-write" | "torn-write"
    rate  ::= firing probability in (0, 1]      (default 1)
    param ::= latency microseconds, >= 0        (default 1000)
    v}

    For example ["bahadur_rao.evaluate=nan:0.01,cac.sweep.task=raise:0.2"]
    corrupts 1% of kernel evaluations to NaN and kills 20% of sweep
    tasks.  [nan] is only accepted at float-valued points (see
    {!known_points}).

    {2 Determinism}

    Firing decisions are drawn from a per-domain {!Numerics.Rng}
    stream seeded by {!configure} (and re-armed by {!reseed}), so a
    given seed + spec + call sequence reproduces the identical fault
    sequence — and hence the identical decision sequence — run after
    run.  Domain-parallel sweeps {!reseed} per task from the scenario
    seed, making each task's faults independent of which domain claims
    it.

    Injection is disabled (and costs one list lookup on an empty list)
    until {!configure} arms it; production binaries that never call
    [configure] take no faults. *)

exception Injected of string
(** Raised by an armed [raise] fault; the payload is the point name. *)

type kind =
  | Raise  (** raise {!Injected} at the point *)
  | Nan  (** corrupt the point's float result to [nan] *)
  | Latency_us of float  (** stall the point for this many microseconds *)
  | Short_write  (** truncate a write to a prefix (record boundary intact) *)
  | Torn_write  (** truncate a write mid-record, as a crash would *)

type rule = { point : string; kind : kind; rate : float }

val parse : string -> (rule list, string) result
(** Parse a fault-spec string (grammar above).  The empty string is a
    valid empty spec. *)

val to_string : rule list -> string
(** Render a spec back into the grammar (inverse of {!parse}). *)

val configure : ?seed:int -> rule list -> unit
(** Arm the registry: install the rules and reset every domain's fault
    stream to [seed] (default 1996) on its next draw.  Call before
    spawning domains. *)

val clear : unit -> unit
(** Disarm every fault; equivalent to [configure []]. *)

val active : unit -> bool
(** Whether any rule is armed. *)

val reseed : int -> unit
(** Reset the {e calling domain's} fault stream to [seed], leaving the
    armed rules in place.  Used by {!Cac.Sweep} to make per-task fault
    draws independent of domain scheduling. *)

val inject : string -> unit
(** The hook for unit-valued points: draws once per armed rule for
    this point, then applies the fired faults ([raise] raises
    {!Injected}, [latency] sleeps; [nan] is meaningless here and is
    rejected by {!parse}).  No-op when the point has no armed rules. *)

val inject_float : string -> (unit -> float) -> float
(** The hook for float-valued points: like {!inject}, but a fired
    [nan] fault corrupts the computed result to [Float.nan] (the
    computation still runs, so telemetry counts it). *)

type write_outcome =
  | Write_all  (** write the full buffer *)
  | Write_short of int  (** write only this many bytes, then stop *)
  | Write_torn of int
      (** write only this many bytes {e and} treat the sink as severed
          (the WAL closes the segment, as a crash mid-write would) *)

val write_plan : string -> len:int -> write_outcome
(** The hook for write-shaped points ([persist.wal.append],
    [persist.snapshot.write]): decide the fate of an [len]-byte write
    before it is issued.  Applies fired [latency] and [raise] rules
    first (so those kinds work unchanged at write points); a fired
    [torn-write] wins over a fired [short-write].  Returns
    {!Write_all} when nothing fires or [len <= 1]. *)

val injected_total : unit -> int
(** Merged value of the [cac.fault.injected] counter — total faults
    fired in this process, all points and domains. *)
