(* Append-only journal of engine mutations.

   {2 Record framing}

   Each record is [len:4 LE][crc32(payload):4 LE][payload].  The
   reader walks frames sequentially: a final frame cut off by EOF is a
   {e torn tail} — the expected residue of a crash mid-write, reported
   and ignored — while a complete frame whose CRC does not match is
   {e interior corruption}, which fails closed (the journal cannot be
   trusted past that point).

   {2 Threading: caller-runs group commit}

   [append] and [rotate] run under the caller's critical section (the
   server runs the engine under a mutex) and only push onto the queue.
   The I/O is done by whichever [barrier] caller needs it: when no one
   holds the writer role, the caller takes it, moves the whole queue
   into the writer's batch in one [Mutex.protect] section, writes and
   fsyncs it with no lock held, and publishes the watermarks in a
   second section.  Callers that arrive meanwhile wait for that writer
   instead of writing themselves, so a burst of acks shares one write
   pass and one fsync.  No blocking I/O ever runs under a lock —
   ctslint's L1 rule, with [Unix.fsync]/[Unix.single_write] in its
   blocking vocabulary, checks exactly this split.

   {2 Watermarks}

   Records get dense ids at append time.  The writer publishes two
   watermarks: [written_id] (handed to the OS — survives SIGKILL via
   the page cache) and [synced_id] (fsynced — survives power loss).
   [barrier] maps the fsync policy onto them: [Always] waits for
   synced, [Every _] for written, [Never] writes the queue if no one
   else is writing and never waits.  A record lost to an injected
   fault still advances the watermarks (counted in [persist.wal.lost])
   so barriers can never deadlock on a record that will never hit the
   disk.

   {2 Failure}

   A writer that raises (a segment that cannot be opened, a write or
   fsync the OS refuses) or a record refused while the journal is open
   (full queue) leaves a mutation that no journal holds.  Either marks
   the journal failed: it refuses further appends, and every later
   [barrier] raises, so no mutation is acknowledged without its
   record. *)

let () =
  Obs.Registry.declare_counter "persist.wal.records";
  Obs.Registry.declare_counter "persist.wal.dropped";
  Obs.Registry.declare_counter "persist.wal.lost";
  Obs.Registry.declare_counter "persist.wal.fsyncs";
  Obs.Registry.declare_counter "persist.wal.fsync_errors";
  Obs.Registry.declare_counter "persist.wal.rotations";
  Obs.Registry.declare_gauge "persist.wal.bytes";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:100_000.0 ~bins:40
    "persist.wal.append.us";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:100_000.0 ~bins:40
    "persist.fsync.us"

(* {2 Fsync policy} *)

type policy = Always | Every of int | Never

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "every" -> (
          let n = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (Every n)
          | _ ->
              Error
                (Printf.sprintf "fsync policy %S: every:N needs an N >= 1" s))
      | _ ->
          Error
            (Printf.sprintf
               "unknown fsync policy %S (expected always, every:N or never)" s))

let policy_name = function
  | Always -> "always"
  | Never -> "never"
  | Every n -> Printf.sprintf "every:%d" n

(* {2 Framing} *)

let max_record_len = 1 lsl 20

let frame payload =
  let len = String.length payload in
  if len = 0 || len > max_record_len then
    invalid_arg "Wal.frame: record length out of range";
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.digest payload));
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

type tail = Tail_clean | Tail_torn of int
type corrupt = { offset : int; reason : string }

let parse data =
  let n = String.length data in
  let rec go off acc =
    if off = n then Ok (List.rev acc, Tail_clean)
    else if n - off < 8 then Ok (List.rev acc, Tail_torn off)
    else
      let len = Int32.to_int (String.get_int32_le data off) in
      if len <= 0 || len > max_record_len then
        Error { offset = off; reason = Printf.sprintf "implausible record length %d" len }
      else if off + 8 + len > n then Ok (List.rev acc, Tail_torn off)
      else
        let crc = Int32.to_int (String.get_int32_le data (off + 4)) land 0xffffffff in
        let payload = String.sub data (off + 8) len in
        if Crc32.digest payload <> crc then
          Error { offset = off; reason = "crc mismatch" }
        else go (off + 8 + len) (payload :: acc)
  in
  go 0 []

let read_file path = parse (Ioutil.read_string path)

(* {2 Segment naming} *)

let segment_name seq = Printf.sprintf "wal-%08d.log" seq

let segment_seq name =
  if
    String.length name = 16
    && String.starts_with ~prefix:"wal-" name
    && String.ends_with ~suffix:".log" name
  then int_of_string_opt (String.sub name 4 8)
  else None

let segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             Option.map
               (fun seq -> (seq, Filename.concat dir n))
               (segment_seq n))
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* {2 The writer} *)

type item = Rec of { id : int; frame : string } | Rotate of int

type t = {
  dir : string;
  policy : policy;
  mutex : Mutex.t;
  flushed : Condition.t;  (* barrier waiters wait for the writer to publish *)
  queue : item Queue.t;
  mutable next_id : int;
  mutable written_id : int;
  mutable synced_id : int;
  mutable seq : int;  (* segment that new appends target *)
  mutable closed : bool;
  mutable failure : string option;  (* why the journal stopped writing *)
  mutable writing : bool;  (* a caller holds the writer role *)
  (* Owned by the writer role: only its holder touches these, and the
     role changes hands under [mutex]. *)
  batch : item Queue.t;
  mutable fd : Unix.file_descr;
  mutable fd_seq : int;
  mutable unsynced : int;
  mutable last_written : int;
  mutable last_synced : int;
}

type stats = { appended : int; written : int; synced : int; segment : int }

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        appended = t.next_id;
        written = t.written_id + 1;
        synced = t.synced_id + 1;
        segment = t.seq;
      })

let policy t = t.policy

let open_segment dir seq =
  let path = Filename.concat dir (segment_name seq) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  Ioutil.fsync_dir dir;
  fd

type wrote = Wrote_all | Wrote_torn | Wrote_lost

(* Issue one record's write, letting the fault switchboard decide its
   fate.  A short write is deliberately left *unnoticed* — later
   records land after the partial frame, manufacturing the
   interior-corruption failure mode recovery must fail closed on.  A
   torn write severs the segment (the caller rotates), as a crash
   mid-write would.  A write the OS refuses raises: the record is not
   in the journal, so the journal has failed. *)
let write_record fd frame_s =
  let t0 = Obs.Clock.monotonic_ns () in
  let len = String.length frame_s in
  let outcome =
    match Resilience.Fault.write_plan "persist.wal.append" ~len with
    | exception Resilience.Fault.Injected _ -> Wrote_lost
    | plan ->
        let n, wrote =
          match plan with
          | Resilience.Fault.Write_all -> (len, Wrote_all)
          | Resilience.Fault.Write_short n -> (n, Wrote_lost)
          | Resilience.Fault.Write_torn n -> (n, Wrote_torn)
        in
        Ioutil.write_all fd frame_s 0 n;
        Obs.Registry.add_gauge "persist.wal.bytes" (float_of_int n);
        wrote
  in
  Obs.Registry.observe "persist.wal.append.us"
    (Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0));
  outcome

(* {3 Writer-role work: no lock held} *)

let fsync_now t =
  let t0 = Obs.Clock.monotonic_ns () in
  (match
     Resilience.Fault.inject "persist.wal.fsync";
     Unix.fsync t.fd
   with
  | () -> ()
  | exception (Resilience.Fault.Injected _ | Unix.Unix_error _) ->
      Obs.Registry.incr "persist.wal.fsync_errors";
      (* The injected failure is counted; the data still reaches the
         platter so an acked record is never silently volatile.  A
         second, real failure raises and fails the journal. *)
      Unix.fsync t.fd);
  Obs.Registry.incr "persist.wal.fsyncs";
  t.last_synced <- t.last_written;
  t.unsynced <- 0;
  Obs.Registry.observe "persist.fsync.us"
    (Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0))

let close_fd t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* The new segment is open before the old fd closes, so a failed open
   leaves [t.fd] valid for [close]. *)
let move_to t seq =
  (match t.policy with Never -> () | Always | Every _ -> fsync_now t);
  let fd = open_segment t.dir seq in
  close_fd t;
  t.fd <- fd;
  t.fd_seq <- seq;
  Obs.Registry.incr "persist.wal.rotations"

let write_item t = function
  | Rotate target -> if target > t.fd_seq then move_to t target
  | Rec { id; frame } ->
      (match write_record t.fd frame with
      | Wrote_all -> ()
      | Wrote_lost -> Obs.Registry.incr "persist.wal.lost"
      | Wrote_torn ->
          (* Sever the segment as a crash would, then give the record a
             clean copy at the head of the next one; the torn tail is
             what recovery's truncation path digests. *)
          let next =
            Mutex.protect t.mutex (fun () ->
                t.seq <- t.seq + 1;
                t.seq)
          in
          move_to t next;
          Ioutil.write_all t.fd frame 0 (String.length frame);
          Obs.Registry.add_gauge "persist.wal.bytes"
            (float_of_int (String.length frame)));
      t.last_written <- id;
      t.unsynced <- t.unsynced + 1

(* Write the batch in queue order, then fsync as the policy asks;
   [final] (a clean close) syncs whatever is left, whatever the
   policy. *)
let write_batch t ~final =
  while not (Queue.is_empty t.batch) do
    write_item t (Queue.pop t.batch)
  done;
  let due =
    match t.policy with
    | Always -> t.unsynced > 0
    | Every n -> t.unsynced >= n
    | Never -> false
  in
  if due || (final && t.unsynced > 0) then fsync_now t

(* Give the writer role back: publish the watermarks (and the failure,
   if the batch raised) and wake every waiter. *)
let release t failure =
  Queue.clear t.batch;
  Mutex.protect t.mutex (fun () ->
      if t.last_written > t.written_id then t.written_id <- t.last_written;
      if t.last_synced > t.synced_id then t.synced_id <- t.last_synced;
      (match failure with
      | Some exn when Option.is_none t.failure ->
          t.failure <- Some (Printexc.to_string exn)
      | Some _ | None -> ());
      t.writing <- false;
      Condition.broadcast t.flushed)

(* {3 The caller-facing operations} *)

(* Appends past this many queued records drop and fail the journal. *)
let capacity = 65536

let create ~dir ~policy ~seq () =
  if seq < 0 then invalid_arg "Wal.create: seq < 0";
  Ioutil.mkdir_p dir;
  {
    dir;
    policy;
    mutex = Mutex.create ();
    flushed = Condition.create ();
    queue = Queue.create ();
    next_id = 0;
    written_id = -1;
    synced_id = -1;
    seq;
    closed = false;
    failure = None;
    writing = false;
    batch = Queue.create ();
    fd = open_segment dir seq;
    fd_seq = seq;
    unsynced = 0;
    last_written = -1;
    last_synced = -1;
  }

let append t payload =
  let fr = frame payload in
  Mutex.protect t.mutex (fun () ->
      if t.closed || Option.is_some t.failure then false
      else if Queue.length t.queue >= capacity then begin
        (* The mutation has happened and its record is gone: no later
           ack may pretend otherwise. *)
        Obs.Registry.incr "persist.wal.dropped";
        t.failure <- Some "journal queue full";
        false
      end
      else begin
        Queue.push (Rec { id = t.next_id; frame = fr }) t.queue;
        t.next_id <- t.next_id + 1;
        Obs.Registry.incr "persist.wal.records";
        true
      end)

let rotate t =
  Mutex.protect t.mutex (fun () ->
      if t.closed then t.seq
      else begin
        let covered = t.seq in
        t.seq <- t.seq + 1;
        Queue.push (Rotate t.seq) t.queue;
        covered
      end)

(* Under [t.mutex]: [true] once the caller holds the writer role with
   the queue as its batch, [false] when it may return.  It waits only
   while another caller writes and the policy still needs a record up
   to [target]; a free role it takes when there is something to write
   and the policy needs it ([Never]: whenever something is queued). *)
let rec claim t ~target =
  (match t.failure with
  | Some why -> failwith ("Wal.barrier: journal failed: " ^ why)
  | None -> ());
  let needed =
    match t.policy with
    | Always -> t.synced_id < target
    | Every _ -> t.written_id < target
    | Never -> false
  in
  if t.writing && needed then begin
    Condition.wait t.flushed t.mutex;
    claim t ~target
  end
  else begin
    let write =
      (not t.writing)
      && (not (Queue.is_empty t.queue))
      && (needed || match t.policy with Never -> true | Always | Every _ -> false)
    in
    if write then begin
      t.writing <- true;
      Queue.transfer t.queue t.batch
    end;
    write
  end

let barrier t =
  let write =
    Mutex.protect t.mutex (fun () -> claim t ~target:(t.next_id - 1))
  in
  (* The batch holds every record appended before this call that no
     earlier writer took, and earlier writers have published, so one
     pass covers the caller. *)
  if write then
    match write_batch t ~final:false with
    | () -> release t None
    | exception exn ->
        release t (Some exn);
        raise exn

let close t =
  let role =
    Mutex.protect t.mutex (fun () ->
        if t.closed then None
        else begin
          t.closed <- true;
          while t.writing do
            Condition.wait t.flushed t.mutex
          done;
          t.writing <- true;
          Queue.transfer t.queue t.batch;
          Some (Option.is_none t.failure)
        end)
  in
  match role with
  | None -> ()
  | Some healthy ->
      (* A failed journal writes nothing more: its segment may already
         lack a record that the queued ones follow. *)
      let failure =
        if not healthy then None
        else
          match write_batch t ~final:true with
          | () -> None
          | exception exn -> Some exn
      in
      close_fd t;
      release t failure
