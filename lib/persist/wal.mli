(** The write-ahead log: an append-only journal of engine mutations.

    {2 Record format}

    A segment file ([wal-%08d.log]) is a sequence of frames:

    {v
    +-----------+-----------------+------------------+
    | len: 4 LE | crc32: 4 LE     | payload: len     |
    +-----------+-----------------+------------------+
    v}

    [crc32] is {!Crc32.digest} of the payload.  The reader
    distinguishes two failure shapes: a final frame cut off by EOF is
    a {e torn tail} (the residue of a crash mid-write — reported,
    truncated, recovered past), while a complete frame with a CRC
    mismatch or an implausible length is {e interior corruption},
    which fails closed.

    {2 Write path: caller-runs group commit}

    {!append} is non-blocking and safe to call under a lock: it frames
    the payload and pushes it onto a bounded in-memory queue.  The I/O
    is done by {!barrier}'s callers.  When no caller holds the writer
    role, a barrier that needs its record written takes the role,
    writes the whole queue in id order with no lock held, fsyncs as
    the policy asks, publishes the watermarks and wakes the waiters;
    callers that arrive meanwhile wait for that writer.  No blocking
    I/O ever runs under a lock (ctslint L1 checks this, with
    [Unix.fsync]/[Unix.single_write] in its blocking vocabulary), and
    the journal runs no domain of its own.

    {2 Durability barrier}

    Records take dense ids; the writer publishes how far the journal
    has {e written} (handed to the OS — survives SIGKILL) and {e
    synced} (fsynced — survives power loss).  {!barrier} returns once
    the policy's watermark covers every append issued before the call:
    [Always] waits for synced, [Every n] for written (and fsyncs once
    [n] records are unsynced), [Never] writes the queue if no one else
    is writing and never waits.  Loss windows on SIGKILL: 0 records
    for [Always] and [Every _] (acked writes are at least in the page
    cache), unbounded for [Never]; on power loss [Every n] may lose up
    to [n] acked records and [Never] is unbounded.

    {2 Failure}

    A journal that cannot write {e fails}: when a writer raises (a
    segment that cannot be opened, a write or a retried fsync the OS
    refuses) or a record is refused while the journal is open (full
    queue).  A failed journal refuses appends, and every later
    {!barrier} raises [Failure], so no mutation is acknowledged
    without its record.

    Fault points: [persist.wal.append] (raise / latency / short-write
    / torn-write) decides each record write's fate; [persist.wal.fsync]
    (raise / latency) fires before each fsync.  These model disk
    damage that recovery must catch, not a failed journal: a record
    lost to one counts in [persist.wal.lost] and still advances the
    watermarks.  A fired torn-write severs the current segment exactly
    as a crash would — the writer rotates and re-appends the record
    cleanly, leaving a real torn tail behind for recovery to digest. *)

type policy = Always | Every of int | Never

val policy_of_string : string -> (policy, string) result
(** ["always"], ["never"], or ["every:N"] with [N >= 1]. *)

val policy_name : policy -> string

type t

val create : ?capacity:int -> dir:string -> policy:policy -> seq:int -> unit -> t
(** Open a journal on a new segment [seq] (always a fresh file — the
    writer never appends to a previous process's segment; recovery
    supplies a [seq] past every existing one).  [capacity] (default
    65536) bounds the in-memory queue.  Raises [Unix.Unix_error] when
    the segment cannot be opened. *)

val append : t -> string -> bool
(** Queue one record.  Non-blocking; returns [false] when the journal
    is closed or failed, and when the queue is full, which counts a
    drop and fails the journal.  Safe to call under a lock. *)

val barrier : t -> unit
(** Return once the policy's durability watermark covers every record
    appended before this call, writing the queue if no other caller
    is.  Never call it under a lock.  Under [Never] it never waits.
    After a clean {!close} it returns at once.  Raises [Failure] once
    the journal has failed. *)

val rotate : t -> int
(** Queue a cut to the next segment, which the next writer (or
    {!close}) applies in queue order after an fsync, policy
    permitting; returns the sequence number of the {e covered}
    segment — a snapshot taken atomically with this call covers every
    record up to and including that segment.  Non-blocking. *)

val close : t -> unit
(** Wait for any active writer, write the queue, fsync whatever is
    unsynced (a clean shutdown leaves nothing volatile, even under
    [Never]) and close the segment.  A failed journal just closes its
    segment.  Never raises. *)

type stats = {
  appended : int;  (** records accepted by {!append} *)
  written : int;  (** records handed to the OS *)
  synced : int;  (** records fsynced *)
  segment : int;  (** sequence number new appends target *)
}

val stats : t -> stats
val policy : t -> policy
val dir : t -> string

(** {2 Reading} *)

type tail =
  | Tail_clean
  | Tail_torn of int  (** byte offset of the partial final record *)

type corrupt = { offset : int; reason : string }

val read_file : string -> (string list * tail, corrupt) result
(** Parse one segment into record payloads.  [Tail_torn] is benign
    (crash residue); [Error] is interior corruption and must fail
    closed.  Raises [Sys_error] if the file cannot be read. *)

val frame : string -> string
(** Frame one payload ([len][crc][payload]); exposed for tests.
    Raises [Invalid_argument] on empty or oversized payloads. *)

val segment_name : int -> string
val segment_seq : string -> int option

val segments : string -> (int * string) list
(** The [(seq, path)] of every segment in a directory, ascending; []
    if the directory is unreadable. *)
