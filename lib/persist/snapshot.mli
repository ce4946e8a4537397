(** Engine checkpoints: the full {!Cac.Engine.state} as one JSON
    document ([cts.persist.snapshot.v1]), written temp-file-first with
    an fsync and an atomic rename, so a crash mid-checkpoint can never
    destroy the previous snapshot.  Each snapshot records [covers],
    the highest journal segment whose records it subsumes; compaction
    deletes segments at or below it. *)

val name : int -> string
(** [snapshot-%08d.json], keyed by the covered segment. *)

val list : dir:string -> (int * string) list
(** All snapshots in a directory as [(covers, path)], ascending. *)

val latest : dir:string -> (int * string) option

val encode : covers:int -> Cac.Engine.state -> string
(** Deterministic: equal states encode byte-identically. *)

val write : dir:string -> covers:int -> Cac.Engine.state -> unit
(** Write a checkpoint (temp file, fsync, rename, directory fsync).
    The [persist.snapshot.write] fault point can raise, truncate the
    document (short-write: the corrupt result {e is} renamed into
    place) or tear it (torn-write: the temp file is abandoned and this
    raises — the previous snapshot stays authoritative).  Raises on
    I/O failure; callers count [persist.snapshot.errors]. *)

val load : string -> (int * Cac.Engine.state, string) result
