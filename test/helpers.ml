(* Shared assertions and generators for the test suite. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual
      tol

let check_close_rel ?(tol = 1e-9) msg expected actual =
  let scale = Stdlib.max 1e-12 (Float.abs expected) in
  if Float.abs (expected -. actual) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected
      actual tol

(* Bit equality, for results that must not move at all. *)
let check_bits msg expected actual =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual)) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_true msg cond = Alcotest.(check bool) msg true cond

let check_int msg expected actual = Alcotest.(check int) msg expected actual

let rng ?(seed = 7) () = Numerics.Rng.create ~seed

(* Route experiment CSV output to a temp dir so tests don't litter. *)
let with_tmp_results f =
  let dir = Filename.temp_file "cts_results" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Unix.putenv "CTS_RESULTS_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      Unix.putenv "CTS_RESULTS_DIR" "results")
    (fun () -> f dir)

(* Register a QCheck property as an alcotest case. *)
let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Naive substring search, sufficient for test assertions. *)
let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  if nl = 0 then true
  else begin
    let rec scan i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_tmp_dir f =
  let dir = Filename.temp_file "cts_persist" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* {2 In-process daemons} *)

(* [cts serve]'s defaults on an ephemeral loopback port, two workers
   and no links; tests override the fields they exercise. *)
let daemon_config =
  {
    Srv.Daemon.host = "127.0.0.1";
    port = 0;
    domains = Some 2;
    queue_capacity = 64;
    read_timeout_s = Some 10.0;
    max_body = 1 lsl 20;
    links = [];
    cache_capacity = 4096;
    state_dir = None;
    fsync_policy = Persist.Wal.Always;
    snapshot_every = 10_000;
    access_log = None;
    trace = None;
  }

(* Run [f] with the human sink silenced, as [--quiet] does: the
   daemon's access log and lifecycle lines stay out of the test log. *)
let quietly f =
  let prev = Obs.Sink.human_sink () in
  Obs.Sink.set_human Obs.Sink.Null;
  Fun.protect ~finally:(fun () -> Obs.Sink.set_human prev) f

(* Start [config], serve it on a spawned domain and run [f]; then stop
   it and wait for [serve] to return, i.e. for the whole drain. *)
let with_daemon config f =
  quietly @@ fun () ->
  match Srv.Daemon.start config with
  | Error e -> Alcotest.failf "daemon failed to start: %s" e
  | Ok d ->
      let server = Domain.spawn (fun () -> Srv.Daemon.serve d) in
      Fun.protect
        ~finally:(fun () ->
          Srv.Daemon.stop d;
          Domain.join server)
        (fun () -> f d)
