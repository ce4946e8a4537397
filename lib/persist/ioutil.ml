(* Small file-I/O helpers shared by the WAL writer and the snapshot
   writer.  Everything here blocks; callers must never hold a lock
   (ctslint L1 — the WAL writes between its lock sections and the
   snapshot path runs lock-free). *)

let write_all fd s pos len =
  let b = Bytes.unsafe_of_string s in
  let rec go pos len =
    if len > 0 then begin
      let n = Unix.single_write fd b pos len in
      go (pos + n) (len - n)
    end
  in
  go pos len

(* Durability of the *name*: after creating or renaming a file, the
   directory entry itself must survive a crash.  Best-effort — some
   filesystems refuse directory fsync. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      (try Unix.close dfd with Unix.Unix_error _ -> ())

let read_string path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
