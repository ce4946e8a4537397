(** The daemon-facing durability façade: one state directory, one
    journal hook, one barrier, checkpointing and compaction.

    Wiring (see [Srv.Daemon]): recover with {!Recovery.recover}, open
    the store with the recovery's [r_next_seq], install {!journal} as
    the engine's hook ({!Cac.Engine.set_journal}), call {!barrier}
    after each acked mutation, {!maybe_snapshot} from the pool's
    housekeeping tick, {!snapshot} + {!close} on graceful drain —
    {e after} the worker domains have joined, so an admit racing the
    drain is either fully journaled and snapshotted or was refused. *)

type t

val open_ :
  dir:string -> policy:Wal.policy -> snapshot_every:int -> next_seq:int -> t
(** Create the directory if needed, take an exclusive kernel lock on
    [DIR/LOCK], and start the WAL on segment [next_seq] (use
    {!Recovery.recover}'s [r_next_seq]).  [snapshot_every] = 0
    disables automatic checkpoints (shutdown still writes one).

    The lock makes the directory single-owner: a second opener gets a
    [Sys_error] instead of silently compacting away the segment the
    first store is appending to.  Kernel locks die with the process,
    so a SIGKILLed owner leaves the directory immediately
    reopenable.  Raises [Sys_error] when the directory is already
    owned. *)

val journal : t -> Cac.Engine.op -> unit
(** The engine journal hook: encode, push to the WAL queue, return.
    Never raises, never blocks — safe inside the engine critical
    section.  A refused record fails the journal, and {!barrier}
    reports it. *)

val barrier : t -> unit
(** Block until the fsync policy's durability watermark covers every
    op journaled before this call, writing the WAL queue on the
    calling domain if no other caller is ({!Wal.barrier}).  Call {e
    outside} the engine lock, after a successful mutation, before
    acking the client.  Raises [Failure] once the journal has failed:
    the mutation must not be acked. *)

val snapshot :
  t ->
  with_engine:((Cac.Engine.t -> Cac.Engine.state * int) -> Cac.Engine.state * int) ->
  (int, string) result
(** Checkpoint now.  [with_engine] must run its argument under the
    engine's critical section (e.g. [Srv.Cac_api.with_engine api]);
    state export and journal rotation happen atomically inside it, the
    file write outside.  On success returns the covered segment and
    compacts everything it subsumes; on failure counts
    [persist.snapshot.errors] and leaves the journal authoritative. *)

val snapshot_due : t -> bool

val maybe_snapshot :
  t ->
  with_engine:((Cac.Engine.t -> Cac.Engine.state * int) -> Cac.Engine.state * int) ->
  (int, string) result option
(** Housekeeping-tick entry point: refresh [persist.snapshot.age_s]
    and checkpoint iff [snapshot_every] journaled ops have accumulated
    since the last cut. *)

val close : t -> unit
(** Drain and close the WAL (final fsync) and release the directory
    lock.  Does not
    snapshot — callers decide whether a shutdown checkpoint is wanted
    first. *)

val dir : t -> string
val policy : t -> Wal.policy
val wal_stats : t -> Wal.stats

val debug_json : t -> Obs.Json.t
(** Live store figures for the [/debug/vars] persist section. *)
