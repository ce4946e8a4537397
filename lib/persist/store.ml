(* The durability façade the daemon wires in: one state directory
   holding WAL segments and snapshots, one journal hook for the
   engine, one barrier for request handlers, and checkpoint/compaction
   plumbing for the pool's housekeeping tick.

   Locking contract: [journal] runs inside the caller's engine
   critical section and only does ring work; [snapshot] takes the
   engine lock just long enough to export state and cut the journal
   (via the caller-supplied [with_engine]), then writes the checkpoint
   outside any lock. *)

let () = Obs.Registry.declare_counter "persist.snapshot.compacted"

type t = {
  dir : string;
  lock : Unix.file_descr;  (* exclusive lockf on DIR/LOCK, held for life *)
  wal : Wal.t;
  snapshot_every : int;
  appended : int Atomic.t;  (* journaled ops since the last snapshot cut *)
  last_snapshot : float Atomic.t;  (* wall seconds; 0 = never *)
}

(* Two stores on one directory silently destroy each other: the second
   opener's boot snapshot compacts away the segment the first is still
   appending to, so the first keeps journaling — durably — into an
   unlinked inode.  The kernel lock makes ownership exclusive and
   drops with the process, so a SIGKILLed owner never wedges the
   directory.

   POSIX trap: lockf is an fcntl record lock, and the kernel drops a
   process's record locks on a file when the process closes *any* fd
   referring to it.  Nothing in this process may therefore open
   DIR/LOCK again while the store is live — read it from another
   process (it holds the owner pid) or not at all. *)
let acquire_lock dir =
  let path = Filename.concat dir "LOCK" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () ->
      (* The pid is advisory, for post-mortem reads; the kernel lock is
         the actual mutex. *)
      (try
         Unix.ftruncate fd 0;
         let pid = string_of_int (Unix.getpid ()) ^ "\n" in
         ignore (Unix.write_substring fd pid 0 (String.length pid))
       with Unix.Unix_error _ -> ());
      fd
  | exception Unix.Unix_error ((EAGAIN | EACCES | EDEADLK), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise
        (Sys_error
           (Printf.sprintf
              "state dir %s is locked by another process (%s names its pid)"
              dir path))

let open_ ~dir ~policy ~snapshot_every ~next_seq =
  if snapshot_every < 0 then invalid_arg "Store.open_: snapshot_every < 0";
  Ioutil.mkdir_p dir;
  let lock = acquire_lock dir in
  match Wal.create ~dir ~policy ~seq:next_seq () with
  | wal ->
      {
        dir;
        lock;
        wal;
        snapshot_every;
        appended = Atomic.make 0;
        last_snapshot = Atomic.make 0.0;
      }
  | exception exn ->
      (try Unix.close lock with Unix.Unix_error _ -> ());
      raise exn

let dir t = t.dir
let policy t = Wal.policy t.wal
let wal_stats t = Wal.stats t.wal

(* The engine hook.  Must never raise (the engine has already
   mutated); must never block (it runs under the engine mutex).  A
   record the WAL refuses has failed the journal, so the barrier that
   follows raises instead of acking. *)
let journal t op =
  Resilience.Guard.protect ~label:"persist.store.journal"
    ~fallback:(fun _ -> ())
    (fun () ->
      if Wal.append t.wal (Codec.encode_op op) then Atomic.incr t.appended)

let barrier t = Wal.barrier t.wal

let update_age t =
  let last = Atomic.get t.last_snapshot in
  if last > 0.0 then
    Obs.Registry.set_gauge "persist.snapshot.age_s" (Obs.Clock.wall () -. last)

(* Retire everything the new snapshot subsumes: journal segments at or
   below [covers], and any older snapshot.  Best-effort — a leftover
   file is re-collected by the next compaction. *)
let compact t ~covers =
  let removed = ref 0 in
  List.iter
    (fun (seq, path) ->
      if seq <= covers then (
        (try Sys.remove path with Sys_error _ -> ());
        incr removed))
    (Wal.segments t.dir);
  List.iter
    (fun (c, path) ->
      if c < covers then (
        (try Sys.remove path with Sys_error _ -> ());
        incr removed))
    (Snapshot.list ~dir:t.dir);
  (try Sys.remove (Filename.concat t.dir (Snapshot.name covers) ^ ".tmp")
   with Sys_error _ -> ());
  if !removed > 0 then
    Obs.Registry.incr ~by:!removed "persist.snapshot.compacted"

let snapshot t ~with_engine =
  (* Atomic cut: export and rotation happen under the engine lock, so
     the snapshot covers exactly the records journaled before it and
     the new segment holds exactly those after. *)
  let st, covers =
    with_engine (fun e ->
        let st = Cac.Engine.export e in
        let covers = Wal.rotate t.wal in
        Atomic.set t.appended 0;
        (st, covers))
  in
  match Snapshot.write ~dir:t.dir ~covers st with
  | () ->
      Atomic.set t.last_snapshot (Obs.Clock.wall ());
      update_age t;
      compact t ~covers;
      Ok covers
  | exception exn ->
      Obs.Registry.incr "persist.snapshot.errors";
      Error (Printexc.to_string exn)

let snapshot_due t =
  t.snapshot_every > 0 && Atomic.get t.appended >= t.snapshot_every

let maybe_snapshot t ~with_engine =
  update_age t;
  if snapshot_due t then Some (snapshot t ~with_engine) else None

let close t =
  Wal.close t.wal;
  (* Closing the fd releases the lockf lock. *)
  try Unix.close t.lock with Unix.Unix_error _ -> ()

let debug_json t =
  let s = Wal.stats t.wal in
  let open Obs.Json in
  Obj
    [
      ("dir", String t.dir);
      ("fsync_policy", String (Wal.policy_name (Wal.policy t.wal)));
      ("snapshot_every", Int t.snapshot_every);
      ("journaled_since_snapshot", Int (Atomic.get t.appended));
      ("wal_appended", Int s.Wal.appended);
      ("wal_written", Int s.Wal.written);
      ("wal_synced", Int s.Wal.synced);
      ("wal_segment", Int s.Wal.segment);
    ]
