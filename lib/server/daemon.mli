(** The [cts serve] lifecycle, in one place.

    {!start} boots in a fixed order: refuse a link id configured
    twice, open the log files, recover the state directory into a
    cold engine (interior corruption fails closed), open the store
    and install its journal hook, add the configured links the
    recovered state lacks, checkpoint, arm the per-ack durability
    barrier (which writes the journal on the worker domain that needs
    it; a failed journal makes admits and releases answer 500), and
    bind the socket last, so a client can connect only once the
    connection table is whole.  {!serve}
    runs until {!stop}, then drains: every worker joins, the shutdown
    snapshot is cut, the store closes and the log sinks are retired.

    Lifecycle lines (durable state and recovery at boot, SIGHUP, the
    shutdown snapshot) go to {!Obs.Sink.human_sink}, so a [Null] human
    sink silences them.  A failed checkpoint is reported on stderr and
    is not fatal: the journal stays authoritative. *)

type config = {
  host : string;
  port : int;  (** [0] picks an ephemeral port; read it with {!port} *)
  domains : int option;  (** worker domains; [None] = the pool default *)
  queue_capacity : int;
  read_timeout_s : float option;  (** per-request read deadline *)
  max_body : int;  (** largest accepted request body, bytes *)
  links : (string * float * float * float) list;
      (** [(id, capacity, buffer_msec, target_clr)]; a recovered link
          wins over a configured one with the same id *)
  cache_capacity : int;
  state_dir : string option;  (** [None] = in-memory connection table *)
  fsync_policy : Persist.Wal.policy;
  snapshot_every : int;
  access_log : string option;  (** JSONL file; [None] = the human sink *)
  trace : string option;  (** span-event JSONL file, truncated at boot *)
}

type t

val start : config -> (t, string) result
(** Boot and bind.  On [Error] everything acquired is released: log
    files closed, the store closed (its lock released), no socket
    bound. *)

val port : t -> int
val domains : t -> int

val links : t -> Cac.Link.t list
(** The served links, after recovery and configuration. *)

val serve : t -> unit
(** Run the accept loop on the calling domain until {!stop}; returns
    after the drain, the shutdown snapshot, the store close and the
    retirement of the log sinks. *)

val stop : t -> unit
(** Request the drain.  Async-signal-safe (one atomic write). *)

val reopen_logs : t -> unit
(** Have the next housekeeping tick reopen the access-log and trace
    files by path (logrotate hand-off).  Async-signal-safe (one
    atomic write). *)
