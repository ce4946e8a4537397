open Helpers

(* {2 Plumbing}

   WAL and snapshot tests work on throwaway directories; the crash
   harness and CLI tests exec the real binary (a declared test dep, so
   [../bin/cts_cli.exe] relative to the test's cwd). *)

let exe =
  lazy
    (match
       List.find_opt Sys.file_exists
         [
           "../bin/cts_cli.exe";
           "_build/default/bin/cts_cli.exe";
           "bin/cts_cli.exe";
         ]
     with
    | Some path -> path
    | None -> Alcotest.fail "cts_cli.exe not built")

let check_str msg expected actual = Alcotest.(check string) msg expected actual

let spin ?(tries = 2000) cond msg =
  let rec go n =
    if cond () then ()
    else if n <= 0 then Alcotest.fail msg
    else begin
      Unix.sleepf 0.005;
      go (n - 1)
    end
  in
  go tries

let read_whole path = In_channel.with_open_bin path In_channel.input_all

let z0975 = Cac.Source_class.of_name_exn "z0.975"

let admit_or_fail engine ~link =
  match Cac.Engine.admit engine ~link ~cls:z0975 with
  | Cac.Engine.Admitted conn -> conn
  | Cac.Engine.Rejected _ -> Alcotest.fail "admission unexpectedly rejected"

(* {2 CRC32} *)

let test_crc32 () =
  (* The standard IEEE 802.3 check vector. *)
  check_int "crc32(\"123456789\")" 0xCBF43926 (Persist.Crc32.digest "123456789");
  check_int "empty string" 0 (Persist.Crc32.digest "")

(* {2 WAL framing, torn tails, interior corruption} *)

let test_wal_round_trip () =
  with_tmp_dir @@ fun dir ->
  let wal = Persist.Wal.create ~dir ~policy:Persist.Wal.Always ~seq:0 () in
  let payloads = List.init 20 (fun i -> Printf.sprintf "record-%d" i) in
  List.iter
    (fun p -> check_true "append accepted" (Persist.Wal.append wal p))
    payloads;
  Persist.Wal.barrier wal;
  let stats = Persist.Wal.stats wal in
  check_int "all records appended" 20 stats.Persist.Wal.appended;
  check_int "always: synced = appended after barrier" 20
    stats.Persist.Wal.synced;
  Persist.Wal.close wal;
  match Persist.Wal.segments dir with
  | [ (0, path) ] -> (
      match Persist.Wal.read_file path with
      | Ok (records, Persist.Wal.Tail_clean) ->
          Alcotest.(check (list string)) "payloads round trip" payloads records
      | Ok (_, Persist.Wal.Tail_torn off) ->
          Alcotest.failf "unexpected torn tail at %d" off
      | Error { Persist.Wal.offset; reason } ->
          Alcotest.failf "corrupt at %d: %s" offset reason)
  | segs -> Alcotest.failf "expected one segment, found %d" (List.length segs)

let write_segment dir seq chunks =
  let path = Filename.concat dir (Persist.Wal.segment_name seq) in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (Out_channel.output_string oc) chunks);
  path

let test_torn_tail_truncates () =
  with_tmp_dir @@ fun dir ->
  let fa = Persist.Wal.frame "alpha" and fb = Persist.Wal.frame "beta" in
  let torn = Persist.Wal.frame "gamma" in
  let path =
    write_segment dir 0
      [ fa; fb; String.sub torn 0 (String.length torn - 3) ]
  in
  (match Persist.Wal.read_file path with
  | Ok (records, Persist.Wal.Tail_torn off) ->
      Alcotest.(check (list string))
        "complete records survive" [ "alpha"; "beta" ] records;
      check_int "torn offset points at the partial frame"
        (String.length fa + String.length fb)
        off
  | Ok (_, Persist.Wal.Tail_clean) -> Alcotest.fail "missed the torn tail"
  | Error { Persist.Wal.offset; reason } ->
      Alcotest.failf "torn tail misread as corruption at %d: %s" offset reason);
  (* A sub-header residue (< 8 bytes) is torn too. *)
  let path = write_segment dir 1 [ fa; "\x05\x00\x00" ] in
  match Persist.Wal.read_file path with
  | Ok ([ "alpha" ], Persist.Wal.Tail_torn off) ->
      check_int "short header residue" (String.length fa) off
  | _ -> Alcotest.fail "short header residue must read as a torn tail"

let flip_byte path pos =
  let s = Bytes.of_string (read_whole path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x41));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc s)

let test_interior_corruption_fails_closed () =
  with_tmp_dir @@ fun dir ->
  (* Real op frames, so the recovery path sees the failure too. *)
  let ops =
    [
      Persist.Codec.encode_op
        (Cac.Engine.Op_add_link
           {
             id = "oc3";
             capacity = 16140.0;
             buffer = 1000.0;
             target_clr = 1e-6;
           });
      Persist.Codec.encode_op
        (Cac.Engine.Op_admit { conn = 1; link = "oc3"; cls = "z0.975" });
      Persist.Codec.encode_op (Cac.Engine.Op_release 1);
    ]
  in
  let frames = List.map Persist.Wal.frame ops in
  let path = write_segment dir 0 frames in
  let second_off = String.length (List.nth frames 0) in
  (* Flip one payload byte inside the complete second record. *)
  flip_byte path (second_off + 8 + 2);
  (match Persist.Wal.read_file path with
  | Error { Persist.Wal.offset; reason } ->
      check_int "corruption names the record's offset" second_off offset;
      check_true "reason names the crc" (contains_substring reason "crc")
  | Ok _ -> Alcotest.fail "interior corruption must not parse");
  (match Persist.Recovery.verify ~dir with
  | Error e ->
      check_true "recovery fails closed naming the offset"
        (contains_substring e
           (Printf.sprintf "corrupt record at offset %d" second_off))
  | Ok _ -> Alcotest.fail "recovery must fail closed on interior corruption");
  (* An implausible length field is interior corruption as well. *)
  let path2 = write_segment dir 1 frames in
  let s = Bytes.of_string (read_whole path2) in
  Bytes.set_int32_le s second_off 0x7fffffffl;
  Out_channel.with_open_bin path2 (fun oc -> Out_channel.output_bytes oc s);
  match Persist.Wal.read_file path2 with
  | Error { Persist.Wal.offset; reason } ->
      check_int "length corruption names the offset" second_off offset;
      check_true "reason names the length"
        (contains_substring reason "length")
  | Ok _ -> Alcotest.fail "implausible length must not parse"

(* {2 Codec} *)

let test_codec_round_trip () =
  List.iter
    (fun op ->
      match Persist.Codec.decode_op (Persist.Codec.encode_op op) with
      | Ok op' -> check_true "op round trips" (op = op')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      Cac.Engine.Op_add_link
        { id = "oc3"; capacity = 16140.0; buffer = 807.0; target_clr = 1e-6 };
      Cac.Engine.Op_admit { conn = 42; link = "oc3"; cls = "dar1" };
      Cac.Engine.Op_release 42;
    ];
  List.iter
    (fun record ->
      match Persist.Codec.decode_op record with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "unknown op accepted: %s" record)
    [ "{\"op\":\"warp\"}"; "{\"op\":\"remove_link\",\"id\":\"oc3\"}" ];
  match Persist.Codec.decode_op "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* {2 Snapshots} *)

let test_snapshot_round_trip () =
  with_tmp_dir @@ fun dir ->
  let engine = Cac.Engine.create () in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  let c1 = admit_or_fail engine ~link:"oc3" in
  let _c2 = admit_or_fail engine ~link:"oc3" in
  Cac.Engine.release engine ~conn:c1;
  let st = Cac.Engine.export engine in
  Persist.Snapshot.write ~dir ~covers:3 st;
  match Persist.Snapshot.latest ~dir with
  | None -> Alcotest.fail "snapshot not found"
  | Some (covers, path) -> (
      check_int "keyed by covered segment" 3 covers;
      match Persist.Snapshot.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (covers', st') ->
          check_int "covers round trips" 3 covers';
          let fresh = Cac.Engine.create () in
          Cac.Engine.restore fresh st';
          check_str "restore re-exports byte-identically"
            (Persist.Snapshot.encode ~covers:3 st)
            (Persist.Snapshot.encode ~covers:3 (Cac.Engine.export fresh));
          check_int "connections restored" 1
            (Cac.Engine.active_connections fresh))

let test_snapshot_crash_safety () =
  with_tmp_dir @@ fun dir ->
  let engine = Cac.Engine.create () in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  Persist.Snapshot.write ~dir ~covers:1 (Cac.Engine.export engine);
  (* A torn snapshot write abandons the temp file and raises; the
     previous snapshot must stay authoritative. *)
  (match Resilience.Fault.parse "persist.snapshot.write=torn-write:1" with
  | Ok rules -> Resilience.Fault.configure ~seed:3 rules
  | Error e -> Alcotest.failf "fault spec: %s" e);
  Fun.protect ~finally:Resilience.Fault.clear (fun () ->
      ignore (admit_or_fail engine ~link:"oc3");
      match Persist.Snapshot.write ~dir ~covers:2 (Cac.Engine.export engine) with
      | () -> Alcotest.fail "torn snapshot write must raise"
      | exception Failure _ -> ());
  (match Persist.Snapshot.latest ~dir with
  | Some (1, path) -> (
      match Persist.Snapshot.load path with
      | Ok (1, _) -> ()
      | _ -> Alcotest.fail "previous snapshot no longer loads")
  | _ -> Alcotest.fail "previous snapshot must survive a torn checkpoint");
  (* A truncated (short-write) snapshot is renamed into place — the
     corrupt-newest shape — and must fail closed on load. *)
  (match Resilience.Fault.parse "persist.snapshot.write=short-write:1" with
  | Ok rules -> Resilience.Fault.configure ~seed:3 rules
  | Error e -> Alcotest.failf "fault spec: %s" e);
  Fun.protect ~finally:Resilience.Fault.clear (fun () ->
      Persist.Snapshot.write ~dir ~covers:2 (Cac.Engine.export engine));
  match Persist.Recovery.verify ~dir with
  | Error e -> check_true "names the snapshot" (contains_substring e "snapshot")
  | Ok _ -> Alcotest.fail "truncated snapshot must fail recovery closed"

(* {2 Store + recovery} *)

let journaled_engine dir ~policy =
  let engine = Cac.Engine.create () in
  let store =
    Persist.Store.open_ ~dir ~policy ~snapshot_every:0 ~next_seq:0
  in
  Cac.Engine.set_journal engine (Some (Persist.Store.journal store));
  (engine, store)

let test_recovery_determinism () =
  with_tmp_dir @@ fun dir ->
  let engine, store = journaled_engine dir ~policy:Persist.Wal.Always in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  let conns = List.init 5 (fun _ -> admit_or_fail engine ~link:"oc3") in
  Cac.Engine.release engine ~conn:(List.hd conns);
  Persist.Store.barrier store;
  Persist.Store.close store;
  let recover () =
    let e = Cac.Engine.create () in
    match Persist.Recovery.recover ~dir e with
    | Ok r -> (e, r)
    | Error e -> Alcotest.failf "recovery failed: %s" e
  in
  let e1, r1 = recover () in
  let e2, _ = recover () in
  check_int "1 link + 5 admits + 1 release applied" 7
    r1.Persist.Recovery.r_applied;
  check_int "nothing skipped" 0 r1.Persist.Recovery.r_skipped;
  check_int "four live connections" 4 (Cac.Engine.active_connections e1);
  check_str "replay is byte-deterministic"
    (Persist.Snapshot.encode ~covers:0 (Cac.Engine.export e1))
    (Persist.Snapshot.encode ~covers:0 (Cac.Engine.export e2));
  (* New admissions must not collide with recovered connection ids. *)
  let fresh_conn = admit_or_fail e1 ~link:"oc3" in
  check_true "id allocator advanced past the journal"
    (List.for_all (fun c -> fresh_conn > c) conns)

let test_recovery_skips_inconsistent_ops () =
  with_tmp_dir @@ fun dir ->
  let ops =
    [
      Cac.Engine.Op_add_link
        { id = "oc3"; capacity = 16140.0; buffer = 807.0; target_clr = 1e-6 };
      Cac.Engine.Op_admit { conn = 1; link = "oc3"; cls = "z0.975" };
      Cac.Engine.Op_admit { conn = 1; link = "oc3"; cls = "z0.975" };
      Cac.Engine.Op_release 99;
    ]
  in
  ignore
    (write_segment dir 0
       (List.map (fun op -> Persist.Wal.frame (Persist.Codec.encode_op op)) ops));
  match Persist.Recovery.verify ~dir with
  | Error e -> Alcotest.failf "idempotent replay must not fail: %s" e
  | Ok r ->
      check_int "consistent ops applied" 2 r.Persist.Recovery.r_applied;
      check_int "duplicate admit and unknown release skipped" 2
        r.Persist.Recovery.r_skipped;
      check_int "one connection" 1 r.Persist.Recovery.r_conns

let test_store_snapshot_compacts () =
  with_tmp_dir @@ fun dir ->
  let engine = Cac.Engine.create () in
  let store =
    Persist.Store.open_ ~dir ~policy:Persist.Wal.Always ~snapshot_every:3
      ~next_seq:0
  in
  Cac.Engine.set_journal engine (Some (Persist.Store.journal store));
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  ignore (admit_or_fail engine ~link:"oc3");
  ignore (admit_or_fail engine ~link:"oc3");
  Persist.Store.barrier store;
  check_true "3 journaled ops make a snapshot due"
    (Persist.Store.snapshot_due store);
  (match
     Persist.Store.maybe_snapshot store ~with_engine:(fun f -> f engine)
   with
  | Some (Ok covers) -> check_int "covers the first segment" 0 covers
  | Some (Error e) -> Alcotest.failf "snapshot failed: %s" e
  | None -> Alcotest.fail "due snapshot did not run");
  check_true "counter reset" (not (Persist.Store.snapshot_due store));
  ignore (admit_or_fail engine ~link:"oc3");
  Persist.Store.barrier store;
  Persist.Store.close store;
  (* The snapshot subsumed segment 0: only newer segments remain. *)
  check_true "covered segment compacted away"
    (List.for_all (fun (seq, _) -> seq > 0) (Persist.Wal.segments dir));
  let e = Cac.Engine.create () in
  match Persist.Recovery.recover ~dir e with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok r ->
      check_true "recovery starts from the snapshot"
        (r.Persist.Recovery.r_snapshot <> None);
      check_int "snapshot + tail replay" 3 (Cac.Engine.active_connections e)

(* {2 Fsync policies: the declared loss windows} *)

let test_fsync_policy_windows () =
  (* always: nothing acked is unsynced after a barrier (window 0). *)
  with_tmp_dir (fun dir ->
      let wal = Persist.Wal.create ~dir ~policy:Persist.Wal.Always ~seq:0 () in
      for i = 1 to 13 do
        ignore (Persist.Wal.append wal (Printf.sprintf "r%d" i))
      done;
      Persist.Wal.barrier wal;
      let s = Persist.Wal.stats wal in
      check_int "always: appended - synced = 0" 0
        (s.Persist.Wal.appended - s.Persist.Wal.synced);
      Persist.Wal.close wal);
  (* every:n — written (page cache, survives SIGKILL) covers every
     ack; the fsync lag stays under n. *)
  with_tmp_dir (fun dir ->
      let n = 4 in
      let wal =
        Persist.Wal.create ~dir ~policy:(Persist.Wal.Every n) ~seq:0 ()
      in
      for i = 1 to 13 do
        ignore (Persist.Wal.append wal (Printf.sprintf "r%d" i))
      done;
      Persist.Wal.barrier wal;
      let s = Persist.Wal.stats wal in
      check_int "every:n barrier waits for written" s.Persist.Wal.appended
        s.Persist.Wal.written;
      check_true "every:n fsync lag < n"
        (s.Persist.Wal.written - s.Persist.Wal.synced < n);
      Persist.Wal.close wal;
      let s = Persist.Wal.stats wal in
      check_int "clean close leaves nothing volatile" s.Persist.Wal.appended
        s.Persist.Wal.synced);
  (* never: the barrier is a no-op (returns with records still
     unwritten is legal), but a clean close still lands everything. *)
  with_tmp_dir (fun dir ->
      let wal = Persist.Wal.create ~dir ~policy:Persist.Wal.Never ~seq:0 () in
      for i = 1 to 13 do
        ignore (Persist.Wal.append wal (Printf.sprintf "r%d" i))
      done;
      Persist.Wal.barrier wal;
      Persist.Wal.close wal;
      match Persist.Wal.segments dir with
      | [ (_, path) ] -> (
          match Persist.Wal.read_file path with
          | Ok (records, Persist.Wal.Tail_clean) ->
              check_int "all records on disk after close" 13
                (List.length records)
          | _ -> Alcotest.fail "close left a dirty segment")
      | _ -> Alcotest.fail "expected one segment")

let test_policy_of_string () =
  check_true "always"
    (Persist.Wal.policy_of_string "always" = Ok Persist.Wal.Always);
  check_true "never"
    (Persist.Wal.policy_of_string "never" = Ok Persist.Wal.Never);
  check_true "every:16"
    (Persist.Wal.policy_of_string "every:16" = Ok (Persist.Wal.Every 16));
  List.iter
    (fun s ->
      match Persist.Wal.policy_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "every:0"; "every:x"; "sometimes"; "" ]

(* {2 Fault injection on the write path} *)

let test_torn_write_fault_severs_segment () =
  with_tmp_dir @@ fun dir ->
  (match Resilience.Fault.parse "persist.wal.append=torn-write:1" with
  | Ok rules -> Resilience.Fault.configure ~seed:11 rules
  | Error e -> Alcotest.failf "fault spec: %s" e);
  let engine, store =
    Fun.protect ~finally:ignore (fun () ->
        journaled_engine dir ~policy:Persist.Wal.Always)
  in
  Fun.protect ~finally:Resilience.Fault.clear (fun () ->
      ignore
        (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
           ~buffer_msec:20.0 ~target_clr:1e-6);
      ignore (admit_or_fail engine ~link:"oc3");
      ignore (admit_or_fail engine ~link:"oc3");
      Persist.Store.barrier store;
      Persist.Store.close store);
  (* Every record was torn mid-write: the WAL severed the segment and
     re-appended cleanly each time, leaving real torn tails behind. *)
  let e = Cac.Engine.create () in
  match Persist.Recovery.recover ~dir e with
  | Error err -> Alcotest.failf "torn-write residue must recover: %s" err
  | Ok r ->
      check_true "torn tails digested" (r.Persist.Recovery.r_torn >= 1);
      check_int "no op lost to the tearing" 3 r.Persist.Recovery.r_applied;
      check_int "both connections recovered" 2
        (Cac.Engine.active_connections e)

let test_short_write_fault_is_interior_corruption () =
  with_tmp_dir @@ fun dir ->
  let wal = Persist.Wal.create ~dir ~policy:Persist.Wal.Always ~seq:0 () in
  (match Resilience.Fault.parse "persist.wal.append=short-write:1" with
  | Ok rules -> Resilience.Fault.configure ~seed:11 rules
  | Error e -> Alcotest.failf "fault spec: %s" e);
  Fun.protect ~finally:Resilience.Fault.clear (fun () ->
      ignore (Persist.Wal.append wal "first-record-goes-missing");
      Persist.Wal.barrier wal);
  (* The short write went unnoticed (that is the failure being
     modelled); a later healthy record lands after the partial frame. *)
  ignore (Persist.Wal.append wal "second-record");
  Persist.Wal.barrier wal;
  Persist.Wal.close wal;
  match Persist.Wal.segments dir with
  | [ (_, path) ] -> (
      match Persist.Wal.read_file path with
      | Error { Persist.Wal.offset = 0; _ } -> ()
      | Error { Persist.Wal.offset; _ } ->
          Alcotest.failf "corruption at %d, expected offset 0" offset
      | Ok _ ->
          Alcotest.fail "a buried partial frame must fail closed, not parse")
  | _ -> Alcotest.fail "expected one segment"

let test_fsync_fault_keeps_barrier_honest () =
  with_tmp_dir @@ fun dir ->
  (match Resilience.Fault.parse "persist.wal.fsync=raise:1" with
  | Ok rules -> Resilience.Fault.configure ~seed:11 rules
  | Error e -> Alcotest.failf "fault spec: %s" e);
  Fun.protect ~finally:Resilience.Fault.clear (fun () ->
      let wal = Persist.Wal.create ~dir ~policy:Persist.Wal.Always ~seq:0 () in
      ignore (Persist.Wal.append wal "must-still-sync");
      (* The injected fsync failure is counted and retried for real —
         the barrier must neither hang nor ack volatile data. *)
      Persist.Wal.barrier wal;
      let s = Persist.Wal.stats wal in
      check_int "record synced despite injected fsync failure" 1
        s.Persist.Wal.synced;
      Persist.Wal.close wal);
  check_true "fsync errors counted"
    (Obs.Registry.counter_value "persist.wal.fsync_errors" >= 1)

(* {2 Group commit under concurrent callers}

   Four domains append and barrier at once, so the writer role changes
   hands under contention: each barrier must return with its caller's
   record covered, and the segment must hold every record exactly
   once, each domain's in its own order. *)

let test_group_commit_concurrent () =
  let domains = 4 and per_domain = 500 in
  List.iter
    (fun policy ->
      with_tmp_dir @@ fun dir ->
      let name = Persist.Wal.policy_name policy in
      let wal = Persist.Wal.create ~dir ~policy ~seq:0 () in
      let covered (s : Persist.Wal.stats) =
        match policy with
        | Persist.Wal.Always -> s.Persist.Wal.synced
        | Persist.Wal.Every _ | Persist.Wal.Never -> s.Persist.Wal.written
      in
      let worker k () =
        let refused = ref 0 and uncovered = ref 0 in
        for i = 0 to per_domain - 1 do
          if not (Persist.Wal.append wal (Printf.sprintf "d%d-%d" k i)) then
            incr refused;
          (* The caller's record has an id below this count. *)
          let upto = (Persist.Wal.stats wal).Persist.Wal.appended in
          Persist.Wal.barrier wal;
          if covered (Persist.Wal.stats wal) < upto then incr uncovered
        done;
        (!refused, !uncovered)
      in
      let results =
        List.init domains (fun k -> Domain.spawn (worker k))
        |> List.map Domain.join
      in
      check_int (name ^ ": no append refused") 0
        (List.fold_left (fun acc (r, _) -> acc + r) 0 results);
      check_int (name ^ ": every barrier covered its caller's record") 0
        (List.fold_left (fun acc (_, u) -> acc + u) 0 results);
      Persist.Wal.close wal;
      let s = Persist.Wal.stats wal in
      check_int (name ^ ": appended") (domains * per_domain) s.Persist.Wal.appended;
      check_int (name ^ ": synced = appended after close") s.Persist.Wal.appended
        s.Persist.Wal.synced;
      match Persist.Wal.segments dir with
      | [ (_, path) ] -> (
          match Persist.Wal.read_file path with
          | Ok (records, Persist.Wal.Tail_clean) ->
              check_int (name ^ ": records on disk") (domains * per_domain)
                (List.length records);
              for k = 0 to domains - 1 do
                let prefix = Printf.sprintf "d%d-" k in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: domain %d's records once, in order" name k)
                  (List.init per_domain (Printf.sprintf "d%d-%d" k))
                  (List.filter (String.starts_with ~prefix) records)
              done
          | _ -> Alcotest.failf "%s: close left a dirty segment" name)
      | segs ->
          Alcotest.failf "%s: expected one segment, found %d" name
            (List.length segs))
    [ Persist.Wal.Always; Persist.Wal.Every 4 ]

(* {2 A journal that cannot write fails closed}

   The state directory vanishes under a live journal, so the segment
   the next snapshot's rotation asks for cannot be opened.  From then
   on no admit or release may be acknowledged: each answers 500, and a
   refused admit gives its bandwidth back. *)

let api_post path body =
  {
    Srv.Http.meth = Srv.Http.POST;
    target = path;
    path;
    version = Srv.Http.Http_1_1;
    headers = [];
    body;
  }

let test_failed_journal_fails_closed () =
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "state" in
  let store =
    Persist.Store.open_ ~dir ~policy:(Persist.Wal.Every 1_000_000)
      ~snapshot_every:0 ~next_seq:0
  in
  let engine = Cac.Engine.create () in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  Cac.Engine.set_journal engine (Some (Persist.Store.journal store));
  let api =
    Srv.Cac_api.create ~barrier:(fun () -> Persist.Store.barrier store) engine
  in
  let router = Srv.Cac_api.router api in
  let status path body =
    Srv.Http.status (snd (Srv.Router.dispatch router (api_post path body)))
  in
  let admit () = status "/v1/admit" {|{"link":"oc3","class":"z0.975"}|} in
  check_int "a healthy journal acks" 200 (admit ());
  check_int "a second ack" 200 (admit ());
  let acked =
    match (Cac.Engine.export engine).Cac.Engine.s_conns with
    | c :: _ -> c.Cac.Engine.c_conn
    | [] -> Alcotest.fail "no connection admitted"
  in
  rm_rf dir;
  (match
     Persist.Store.snapshot store ~with_engine:(Srv.Cac_api.with_engine api)
   with
  | Ok _ -> Alcotest.fail "a snapshot into a missing directory succeeded"
  | Error _ -> ());
  for i = 1 to 3 do
    check_int (Printf.sprintf "admit %d on a failed journal" i) 500 (admit ())
  done;
  check_int "release on a failed journal" 500
    (status "/v1/release" (Printf.sprintf {|{"conn":%d}|} acked));
  (match Persist.Store.barrier store with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the barrier returned on a failed journal");
  check_int "refused admits hold no bandwidth" 1
    (Cac.Engine.active_connections engine);
  Persist.Store.close store

(* {2 The admit-racing-drain regression}

   An admit in flight while the pool drains must either be fully
   journaled (its ack implies durability) or refused — never acked and
   lost.  [Srv.Daemon.serve] cuts the drain snapshot only after every
   worker domain has joined. *)

let read_response reader =
  let dl = Srv.Io.deadline_in 10.0 in
  let status =
    match Srv.Io.read_line reader ~max:8192 dl with
    | None -> None
    | Some line -> (
        match String.split_on_char ' ' line with
        | _ :: code :: _ -> int_of_string_opt code
        | _ -> None)
  in
  match status with
  | None -> None
  | Some status ->
      let rec headers len =
        match Srv.Io.read_line reader ~max:8192 dl with
        | None -> None
        | Some "" -> Some len
        | Some line ->
            let lower = String.lowercase_ascii line in
            if String.length lower > 15 && String.sub lower 0 15 = "content-length:"
            then
              headers
                (String.trim
                   (String.sub lower 15 (String.length lower - 15))
                |> int_of_string)
            else headers len
      in
      (match headers 0 with
      | None -> None
      | Some len -> Some (status, Srv.Io.read_exact reader len dl))

let conn_of_body body =
  match String.index_opt body ':' with
  | _ when not (contains_substring body {|"admitted":true|}) -> None
  | _ ->
      let marker = {|"conn":|} in
      let rec find i =
        if i + String.length marker > String.length body then None
        else if String.sub body i (String.length marker) = marker then
          let j = ref (i + String.length marker) in
          let start = !j in
          while
            !j < String.length body
            && body.[!j] >= '0'
            && body.[!j] <= '9'
          do
            incr j
          done;
          int_of_string_opt (String.sub body start (!j - start))
        else find (i + 1)
      in
      find 0

let admit_request =
  let body = {|{"link":"big","class":"z0.975"}|} in
  Printf.sprintf
    "POST /v1/admit HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
    (String.length body) body

let test_admit_racing_drain () =
  with_tmp_dir @@ fun dir ->
  let acked = ref [] in
  with_daemon
    {
      daemon_config with
      links = [ ("big", 1_000_000.0, 50.0, 1e-6) ];
      state_dir = Some dir;
      fsync_policy = Persist.Wal.Every 8;
      snapshot_every = 0;
    }
    (fun d ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Srv.Daemon.port d));
      let reader = Srv.Io.reader fd in
      let fire () =
        match
          Srv.Io.write_string fd admit_request;
          read_response reader
        with
        | Some (200, body) -> (
            match conn_of_body body with
            | Some conn -> acked := conn :: !acked
            | None -> ())
        | Some _ | None -> ()
        | exception (Unix.Unix_error _ | Sys_error _) -> ()
      in
      for _ = 1 to 10 do
        fire ()
      done;
      (* Stop the daemon and keep firing: these admits race the drain. *)
      Srv.Daemon.stop d;
      for _ = 1 to 10 do
        fire ()
      done;
      try Unix.close fd with Unix.Unix_error _ -> ());
  (* [serve] has returned: workers joined, shutdown snapshot cut, store
     closed.  Every acked admit must come back. *)
  check_true "the race produced acked admits" (List.length !acked >= 10);
  let recovered = Cac.Engine.create () in
  (match Persist.Recovery.recover ~dir recovered with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recovery failed: %s" e);
  let live = Cac.Engine.export recovered in
  let recovered_ids =
    List.map (fun c -> c.Cac.Engine.c_conn) live.Cac.Engine.s_conns
  in
  List.iter
    (fun conn ->
      check_true
        (Printf.sprintf "acked conn %d survived the drain race" conn)
        (List.mem conn recovered_ids))
    !acked

(* {2 The kill -9 crash harness}

   Boot the real daemon, admit over real HTTP, SIGKILL it, recover the
   state directory in-process and check the fsync policy's loss
   window: with [always], every acked connection must be recovered. *)

let wait_for_pattern ?(tries = 2000) path pattern =
  spin ~tries
    (fun () ->
      Sys.file_exists path && contains_substring (read_whole path) pattern)
    (Printf.sprintf "%S never appeared in %s" pattern path)

let bound_port_of_log path =
  let log = read_whole path in
  let marker = "listening on 127.0.0.1:" in
  let rec find i =
    if i + String.length marker > String.length log then
      Alcotest.failf "no port line in %s" path
    else if String.sub log i (String.length marker) = marker then begin
      let j = ref (i + String.length marker) in
      let start = !j in
      while
        !j < String.length log && log.[!j] >= '0' && log.[!j] <= '9'
      do
        incr j
      done;
      int_of_string (String.sub log start (!j - start))
    end
    else find (i + 1)
  in
  find 0

let spawn_daemon args =
  let log = Filename.temp_file "cts_crash" ".log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process (Lazy.force exe)
      (Array.of_list (Lazy.force exe :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  (pid, log)

let crash_cycle ~dir ~extra_args ~admits =
  let pid, log =
    spawn_daemon
      ([
         "serve"; "--port"; "0"; "--domains"; "2"; "--state-dir"; dir;
         "--fsync-policy"; "always"; "--snapshot-every"; "25"; "--link";
         "big=1000000:50:1e-6";
       ]
      @ extra_args)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      wait_for_pattern log "listening on";
      let port = bound_port_of_log log in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let reader = Srv.Io.reader fd in
      let acked = ref [] in
      for _ = 1 to admits do
        Srv.Io.write_string fd admit_request;
        match read_response reader with
        | Some (200, body) -> (
            match conn_of_body body with
            | Some conn -> acked := conn :: !acked
            | None -> ())
        | Some (st, body) ->
            Alcotest.failf "admit answered %d: %s" st body
        | None -> Alcotest.fail "daemon hung up mid-admit"
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* The whole point: no drain, no snapshot — SIGKILL. *)
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      !acked)

let assert_recovers ~dir acked =
  let engine = Cac.Engine.create () in
  match Persist.Recovery.recover ~dir engine with
  | Error e -> Alcotest.failf "post-crash recovery failed: %s" e
  | Ok _ ->
      let live = Cac.Engine.export engine in
      let ids =
        List.map (fun c -> c.Cac.Engine.c_conn) live.Cac.Engine.s_conns
      in
      check_int "every acked admit recovered (fsync window 0)"
        (List.length acked)
        (List.length (List.filter (fun c -> List.mem c ids) acked));
      check_true "nothing invented"
        (List.length ids <= List.length acked + 1)

let test_crash_recovery_harness () =
  with_tmp_dir @@ fun dir ->
  let acked = crash_cycle ~dir ~extra_args:[] ~admits:60 in
  check_int "all admits acked" 60 (List.length acked);
  assert_recovers ~dir acked;
  (* Crash again on the recovered directory: recovery must stack. *)
  let acked2 = crash_cycle ~dir ~extra_args:[] ~admits:40 in
  let engine = Cac.Engine.create () in
  (match Persist.Recovery.recover ~dir engine with
  | Error e -> Alcotest.failf "second recovery failed: %s" e
  | Ok _ ->
      check_int "both generations recovered"
        (List.length acked + List.length acked2)
        (Cac.Engine.active_connections engine));
  check_true "ids never collide across crashes"
    (List.for_all (fun c -> not (List.mem c acked)) acked2)

let test_crash_recovery_under_faults () =
  with_tmp_dir @@ fun dir ->
  (* Torn writes on 10% of journal appends: the WAL severs and
     re-appends, so the ack guarantee must hold regardless. *)
  let acked =
    crash_cycle ~dir
      ~extra_args:
        [ "--fault-spec"; "persist.wal.append=torn-write:0.1"; "--fault-seed";
          "42" ]
      ~admits:50
  in
  check_int "all admits acked under faults" 50 (List.length acked);
  assert_recovers ~dir acked

(* {2 The verify-state CLI} *)

(* Every command run here must exit on its own.  One that boots a
   daemon instead (a refused flag that is accepted again) is killed
   after 60 s and fails by name rather than hanging the suite.  [env]
   adds NAME=VALUE entries to the inherited environment. *)
let run_cli ?(env = []) args =
  let out = Filename.temp_file "cts_cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env (Lazy.force exe)
      (Array.of_list (Lazy.force exe :: args))
      (Array.append (Unix.environment ()) (Array.of_list env))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | _, status -> Some status
  in
  let status = wait 6000 in
  let text = read_whole out in
  (try Sys.remove out with Sys_error _ -> ());
  match status with
  | Some (Unix.WEXITED code) -> (code, text)
  | Some (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
      Alcotest.failf "cli killed by signal: %s" text
  | None ->
      Alcotest.failf "cts %s did not exit: %s" (String.concat " " args) text

(* Two stores on one directory would compact each other's live
   segments (each journaling durably into an unlinked inode), so
   [Store.open_] holds an exclusive kernel lock on DIR/LOCK.  lockf
   locks are per-process (and [Unix.fork] is off-limits once domains
   exist), so the exclusion is probed through the real CLI: a second
   daemon on the locked dir must refuse to boot.  The probe polls with
   WNOHANG instead of a blocking wait — if the lock ever regresses the
   probed daemon *serves*, and the failure must be a named assert, not
   a hung suite.  POSIX trap the test must respect: the owner process
   may not reopen+close LOCK itself (fcntl record locks drop when any
   fd on the file is closed by the owner), so the pid-content check
   waits until after [Store.close]. *)
let test_store_lock_single_owner () =
  with_tmp_dir @@ fun dir ->
  let store =
    Persist.Store.open_ ~dir ~policy:Persist.Wal.Never ~snapshot_every:0
      ~next_seq:0
  in
  let log = Filename.temp_file "cts_lock" ".out" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process (Lazy.force exe)
      [|
        Lazy.force exe; "serve"; "--port"; "0"; "--state-dir"; dir;
        "--link"; "big=1000000:50:1e-6";
      |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let rec wait_exit tries =
    if tries = 0 then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "second opener is serving: the state-dir lock failed"
    end
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.sleepf 0.01;
          wait_exit (tries - 1)
      | _, Unix.WEXITED code -> code
      | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
          Alcotest.fail "lock probe died on a signal"
  in
  let code = wait_exit 2000 in
  let out = read_whole log in
  (try Sys.remove log with Sys_error _ -> ());
  check_true "second opener exits non-zero" (code <> 0);
  check_true "second opener names the lock"
    (contains_substring out "locked by another process");
  Persist.Store.close store;
  check_true "LOCK recorded the owning pid"
    (contains_substring
       (read_whole (Filename.concat dir "LOCK"))
       (string_of_int (Unix.getpid ())));
  (* Close released the lock: the directory is reopenable. *)
  let again =
    Persist.Store.open_ ~dir ~policy:Persist.Wal.Never ~snapshot_every:0
      ~next_seq:1
  in
  Persist.Store.close again

(* Bad link dimensions, bad workload or pool sizes, bad ports and
   sampling rates, and removed flags and formats are usage errors
   (cmdliner's 124), not uncaught exceptions (125).
   A bad link is caught before the daemon touches its state directory: an
   infinite capacity would otherwise be journaled as JSON null and
   fail the next boot on the same directory. *)
let test_cli_refuses_bad_links () =
  with_tmp_dir @@ fun dir ->
  let state = Filename.concat dir "state" in
  let usage_error what args =
    let code, out = run_cli args in
    check_int (what ^ ": usage error") 124 code;
    check_true (what ^ ": not an internal error")
      (not (contains_substring out "internal error"))
  in
  usage_error "serve --link big=inf:20:1e-6"
    [ "serve"; "--port"; "0"; "--state-dir"; state; "--link"; "big=inf:20:1e-6" ];
  check_true "no state dir created" (not (Sys.file_exists state));
  (* Finite in msec but infinite in cells: the engine's own check
     refuses it, and the boot fails as cleanly. *)
  usage_error "serve --link big=1e308:1000:1e-6"
    [ "serve"; "--port"; "0"; "--state-dir"; state; "--link"; "big=1e308:1000:1e-6" ];
  (* A repeated link id is refused before the state dir is created or
     the first link journaled, which the next boot would recover. *)
  let duplicate = Filename.concat dir "duplicate" in
  usage_error "serve --link a=... --link a=..."
    [
      "serve"; "--port"; "0"; "--state-dir"; duplicate; "--link";
      "a=16140:1:1e-6"; "--link"; "a=16140:2:1e-6";
    ];
  check_true "duplicate link: no state dir created"
    (not (Sys.file_exists duplicate));
  usage_error "cac decide --capacity=-5" [ "cac"; "decide"; "--capacity=-5" ];
  usage_error "cac decide --buffer-msec=nan" [ "cac"; "decide"; "--buffer-msec=nan" ];
  usage_error "cac replay --capacity=inf"
    [ "cac"; "replay"; "--capacity=inf"; "--requests"; "10" ];
  List.iter
    (fun cmd ->
      usage_error
        (String.concat " " cmd ^ " --max-retries")
        (cmd @ [ "--max-retries"; "1" ]))
    [ [ "cac"; "decide" ]; [ "cac"; "replay" ]; [ "serve"; "--port"; "0" ] ];
  usage_error "cac sweep --task-retries"
    [ "cac"; "sweep"; "--task-retries"; "1" ];
  (* Bad workload and pool sizes are refused before any work starts. *)
  usage_error "cac replay --requests 0" [ "cac"; "replay"; "--requests"; "0" ];
  usage_error "cac replay --holding 0" [ "cac"; "replay"; "--holding"; "0" ];
  usage_error "cac replay --rate=-1" [ "cac"; "replay"; "--rate=-1" ];
  usage_error "cac sweep --domains 0" [ "cac"; "sweep"; "--domains"; "0" ];
  (* Every sweep list entry parses and lies in its range, or the sweep
     refuses to start: no entry is dropped and no ERROR row printed. *)
  List.iter
    (fun flags ->
      let args = [ "cac"; "sweep"; "--models"; "dar1" ] @ flags in
      usage_error (String.concat " " args) args;
      let _, out = run_cli args in
      check_true (String.concat " " args ^ ": no table")
        (not (contains_substring out "scenarios")))
    [
      [ "--buffers"; "10,abc"; "--requests"; "0" ];
      [ "--buffers=-5"; "--requests"; "0" ];
      [ "--clrs"; "2"; "--requests"; "0" ];
      [ "--requests=-1" ];
    ];
  usage_error "cac decide -n-1" [ "cac"; "decide"; "-n-1" ];
  usage_error "cac decide --trace-sample 0"
    [ "cac"; "decide"; "--trace-sample"; "0" ];
  usage_error "cac decide --metrics text" [ "cac"; "decide"; "--metrics"; "text" ];
  (* A port outside 0..65535 would otherwise wrap onto another one. *)
  usage_error "serve --port 70000" [ "serve"; "--port"; "70000" ];
  usage_error "serve --port=-1" [ "serve"; "--port=-1" ];
  List.iter
    (fun flags ->
      usage_error
        (String.concat " " ("serve" :: flags))
        ([ "serve"; "--port"; "0" ] @ flags))
    [
      [ "--cache-capacity=-1" ];
      [ "--read-timeout=-5" ];
      [ "--read-timeout"; "nan" ];
      [ "--breaker-cooldown-s"; "1" ];
      [ "--queue-capacity"; "0" ];
      [ "--max-body=-1" ];
      [ "--snapshot-every=-1" ];
      [ "--fsync-policy"; "sometimes" ];
    ];
  (* A pool size is refused before the daemon recovers, locks or
     snapshots its state directory. *)
  let unlocked = Filename.concat dir "unlocked" in
  usage_error "serve --domains 0"
    [ "serve"; "--port"; "0"; "--state-dir"; unlocked; "--domains"; "0" ];
  check_true "--domains 0 creates no state dir" (not (Sys.file_exists unlocked));
  (* analytic runs no simulation, so it takes no scale flags. *)
  usage_error "analytic --frames 5" [ "analytic"; "--frames"; "5" ];
  (* Scale and dimension flags outside their domain are refused while
     parsing, before a frame is simulated or a CSV written.  One
     replication is outside it: a confidence interval needs two. *)
  List.iter
    (fun flags ->
      usage_error (String.concat " " ("simulate" :: flags)) ("simulate" :: flags))
    [
      [ "--frames=0" ];
      [ "--frames=-5" ];
      [ "--reps"; "0" ];
      [ "--reps"; "1" ];
      [ "-n"; "0" ];
      [ "-c"; "0" ];
      [ "--buffer-msec=-1" ];
    ];
  List.iter
    (fun flags ->
      usage_error (String.concat " " ("admit" :: flags)) ("admit" :: flags))
    [ [ "--capacity=0" ]; [ "--buffer-msec=-1" ]; [ "--clr"; "0" ]; [ "--clr"; "2" ] ];
  let results = Filename.concat dir "results" in
  List.iter
    (fun flags ->
      usage_error
        (String.concat " " ("run fig8" :: flags))
        ([ "run"; "fig8"; "--quiet"; "--results-dir"; results ] @ flags))
    [ [ "--frames"; "0" ]; [ "--seed"; "0" ]; [ "--reps"; "1" ] ];
  (* Each scale variable goes through its flag's converter, so a bad
     value is refused the same way and names the variable.  A flag
     wins over its variable, so the CTS_RESULTS_DIR case passes no
     --results-dir. *)
  List.iter
    (fun (name, value) ->
      let flags =
        if name = "CTS_RESULTS_DIR" then [] else [ "--results-dir"; results ]
      in
      let what = name ^ "=" ^ value in
      let code, out =
        run_cli ~env:[ what ] ([ "run"; "fig8"; "--quiet" ] @ flags)
      in
      check_int (what ^ ": usage error") 124 code;
      check_true (what ^ ": names the variable") (contains_substring out name))
    [
      ("CTS_FRAMES", "0");
      ("CTS_FRAMES", "5e5");
      ("CTS_SEED", "0");
      ("CTS_REPS", "1");
      ("CTS_RESULTS_DIR", "");
    ];
  check_true "no results dir created" (not (Sys.file_exists results))

(* The --metrics-out file opens before the command body, as --trace's
   does: an unwritable path fails the run before it writes a result. *)
let test_cli_bad_metrics_out_fails_first () =
  with_tmp_dir @@ fun dir ->
  let results = Filename.concat dir "results" in
  let code, out =
    run_cli
      [
        "run"; "fig4"; "--quiet"; "--results-dir"; results; "--metrics";
        "json"; "--metrics-out"; Filename.concat dir "missing/m.json";
      ]
  in
  check_int "exit code" 1 code;
  check_true "names the flag" (contains_substring out "--metrics-out");
  check_true "no CSV written"
    ((not (Sys.file_exists results)) || Sys.readdir results = [||])

(* A zero buffer is a link dimension the engine accepts (as
   [cac decide --buffer-msec 0] does), so [serve --link] boots with
   one and decides on it. *)
let test_serve_zero_buffer_link () =
  let pid, log =
    spawn_daemon [ "serve"; "--port"; "0"; "--link"; "z=16140:0:1e-6" ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      wait_for_pattern log "listening on";
      let port = bound_port_of_log log in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let body = {|{"link":"z","class":"dar1"}|} in
          Srv.Io.write_string fd
            (Printf.sprintf
               "POST /v1/decide HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
               (String.length body) body);
          match read_response (Srv.Io.reader fd) with
          | Some (200, _) -> ()
          | Some (st, body) ->
              Alcotest.failf "decide on a zero-buffer link answered %d: %s" st
                body
          | None -> Alcotest.fail "daemon hung up mid-decide"))

let test_verify_state_cli () =
  with_tmp_dir @@ fun dir ->
  let engine, store = journaled_engine dir ~policy:Persist.Wal.Always in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  ignore (admit_or_fail engine ~link:"oc3");
  ignore (admit_or_fail engine ~link:"oc3");
  Persist.Store.barrier store;
  Persist.Store.close store;
  let code, out = run_cli [ "cac"; "verify-state"; dir ] in
  check_int "clean state verifies" 0 code;
  check_true "reports the connections" (contains_substring out "2 connections");
  let code, out = run_cli [ "cac"; "verify-state"; "--json"; dir ] in
  check_int "json mode verifies" 0 code;
  check_true "json report" (contains_substring out {|"connections":2|});
  (* Interior corruption must flip the exit code and name the offset. *)
  (match Persist.Wal.segments dir with
  | (_, path) :: _ -> flip_byte path 10
  | [] -> Alcotest.fail "no segment to corrupt");
  let code, out = run_cli [ "cac"; "verify-state"; dir ] in
  check_true "corruption fails the verify" (code <> 0);
  check_true "error names the offset"
    (contains_substring out "corrupt record at offset")

(* {2 SIGHUP: sink rotation on the live daemon} *)

let test_sighup_reopens_access_log () =
  with_tmp_dir @@ fun dir ->
  let access = Filename.concat dir "access.jsonl" in
  let pid, log =
    spawn_daemon
      [
        "serve"; "--port"; "0"; "--domains"; "1"; "--link";
        "oc3=16140:20:1e-6"; "--access-log"; access;
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      wait_for_pattern log "listening on";
      let port = bound_port_of_log log in
      let get () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Srv.Io.write_string fd "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
        ignore (read_response (Srv.Io.reader fd));
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      get ();
      wait_for_pattern access "/healthz";
      (* Rotate the way logrotate does: rename, signal, wait for the
         reopened file to collect the next request. *)
      let rotated = access ^ ".1" in
      Sys.rename access rotated;
      Unix.kill pid Sys.sighup;
      wait_for_pattern log "reopening log sinks";
      spin
        (fun () -> Sys.file_exists access)
        "SIGHUP never reopened the access log";
      get ();
      wait_for_pattern access "/healthz";
      check_true "old lines stayed in the rotated file"
        (contains_substring (read_whole rotated) "/healthz"))

let suite =
  [
    case "crc32 check vector and chaining" test_crc32;
    case "wal append/read round trip" test_wal_round_trip;
    case "torn tail truncates with a warning" test_torn_tail_truncates;
    case "interior corruption fails closed" test_interior_corruption_fails_closed;
    case "op codec round trip" test_codec_round_trip;
    case "snapshot export/restore round trip" test_snapshot_round_trip;
    case "snapshot crash safety under faults" test_snapshot_crash_safety;
    case "recovery is byte-deterministic" test_recovery_determinism;
    case "recovery skips inconsistent ops" test_recovery_skips_inconsistent_ops;
    case "store snapshots compact the journal" test_store_snapshot_compacts;
    case "fsync policies bound the loss window" test_fsync_policy_windows;
    case "fsync policy grammar" test_policy_of_string;
    case "torn-write fault severs the segment" test_torn_write_fault_severs_segment;
    case "short-write fault is interior corruption"
      test_short_write_fault_is_interior_corruption;
    case "injected fsync failure retries for real"
      test_fsync_fault_keeps_barrier_honest;
    case "group commit under concurrent callers" test_group_commit_concurrent;
    case "a journal that cannot write fails closed"
      test_failed_journal_fails_closed;
    slow_case "admit racing drain is never lost" test_admit_racing_drain;
    slow_case "kill -9 crash recovery harness" test_crash_recovery_harness;
    slow_case "crash recovery under torn-write faults"
      test_crash_recovery_under_faults;
    slow_case "verify-state CLI exit codes" test_verify_state_cli;
    case "bad link dimensions are usage errors" test_cli_refuses_bad_links;
    case "bad --metrics-out fails before the run"
      test_cli_bad_metrics_out_fails_first;
    case "serve accepts a zero-buffer link" test_serve_zero_buffer_link;
    slow_case "state dir is single-owner (kernel lock)"
      test_store_lock_single_owner;
    slow_case "SIGHUP reopens the access log" test_sighup_reopens_access_log;
  ]
