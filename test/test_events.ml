open Helpers

(* The runtime-events profiler: pause histograms fill under
   allocation pressure, the span bridge round-trips through a second
   in-process cursor, and the consumer stops cleanly (no lost-wakeup
   hang).  All tests stop the consumer they start — other suites must
   not inherit a running one. *)

let spin ?(tries = 400) cond msg =
  let rec go n =
    if cond () then ()
    else if n <= 0 then Alcotest.fail msg
    else begin
      Unix.sleepf 0.005;
      go (n - 1)
    end
  in
  go tries

(* Allocation pressure that must cross minor-heap and major-slice
   boundaries: boxed floats plus an explicit full major, which shows
   up as an EV_EXPLICIT_GC_FULL_MAJOR pause on this ring. *)
let churn () =
  let junk = ref [] in
  for i = 1 to 50_000 do
    junk := float_of_int i :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  Gc.full_major ()

let gc_pause_observations () =
  let snap = Obs.Registry.snapshot () in
  List.fold_left
    (fun acc ((name, _), h) ->
      if String.equal name "runtime.ev.gc.pause.us" then
        acc + h.Obs.Registry.count
      else acc)
    0 snap.Obs.Registry.histograms

let test_pause_soak () =
  let before = gc_pause_observations () in
  let t = Obs.Events.start ~poll_interval_s:0.001 () in
  check_true "consumer reports running" (Obs.Events.running ());
  churn ();
  (* The consumer attributes pauses within a poll interval; spin
     rather than assume one sleep suffices. *)
  spin
    (fun () ->
      churn ();
      Obs.Events.cumulative_pause_ns () > 0)
    "allocation-heavy soak produced no pauses on this domain's ring";
  spin
    (fun () -> gc_pause_observations () > before)
    "pause histograms never populated";
  check_true "top pauses recorded" (Obs.Events.top_pauses () <> []);
  check_true "top list is bounded" (List.length (Obs.Events.top_pauses ()) <= 32);
  (match Obs.Events.top_pauses () with
  | p :: _ ->
      check_true "top pause has positive duration"
        (Int64.compare p.Obs.Events.p_dur_ns 0L > 0)
  | [] -> ());
  let this_domain =
    Obs.Labels.make [ ("domain", string_of_int (Domain.self () :> int)) ]
  in
  spin
    (fun () ->
      Obs.Registry.counter_value ~labels:this_domain "runtime.ev.gc.pause_ns"
      > 0)
    "runtime.ev.gc.pause_ns{domain} never covered this domain";
  Obs.Events.stop t;
  check_true "stopped consumer reports not running"
    (not (Obs.Events.running ()))

let test_bridge_roundtrip () =
  let t = Obs.Events.start ~poll_interval_s:0.001 ~bridge:true () in
  let seen = ref [] in
  let tracker = Obs.Events.Tracker.create ~on_pause:(fun _ -> ()) () in
  let callbacks =
    Obs.Events.Tracker.callbacks
      ~on_span:(fun ~ring:_ ~name ~enter -> seen := (name, enter) :: !seen)
      tracker
  in
  (* A second cursor over our own ring: each cursor has its own read
     position, so this coexists with the running consumer domain. *)
  let cursor = Runtime_events.create_cursor None in
  Fun.protect
    ~finally:(fun () ->
      Runtime_events.free_cursor cursor;
      Obs.Events.stop t)
    (fun () ->
      Obs.Span.with_ ~name:"events.bridge.probe" (fun () ->
          ignore (Sys.opaque_identity (List.init 10 Fun.id)));
      spin
        (fun () ->
          ignore (Runtime_events.read_poll cursor callbacks None);
          List.mem ("events.bridge.probe", true) !seen
          && List.mem ("events.bridge.probe", false) !seen)
        "bridged span begin/end never reached the second cursor";
      (* Ring order: begin before end (list is accumulated reversed). *)
      let probe =
        List.rev
          (List.filter (fun (n, _) -> n = "events.bridge.probe") !seen)
      in
      match probe with
      | (_, true) :: rest ->
          check_true "exit follows enter" (List.mem ("events.bridge.probe", false) rest)
      | _ -> Alcotest.fail "span enter did not arrive first");
  (* Bridge uninstalled with the consumer: spans no longer reach the
     ring (write_span would need a live Runtime_events session; the
     hook must be gone regardless). *)
  Obs.Span.with_ ~name:"events.bridge.after" (fun () -> ());
  check_true "consumer stopped" (not (Obs.Events.running ()))

let test_stop_is_prompt_and_idempotent () =
  let t = Obs.Events.start ~poll_interval_s:0.05 () in
  churn ();
  let t0 = Obs.Clock.monotonic_ns () in
  Obs.Events.stop t;
  let stop_s = Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0) /. 1e6 in
  (* Worst case is one poll interval plus the final drain; 2 s means a
     lost wakeup. *)
  check_true
    (Printf.sprintf "stop returned promptly (%.3f s)" stop_s)
    (stop_s < 2.0);
  check_true "not running after stop" (not (Obs.Events.running ()));
  (* Second stop of the same handle is a no-op. *)
  Obs.Events.stop t;
  (* The profiler restarts after a stop (fresh consumer, fresh
     per-ring clocks). *)
  let t2 = Obs.Events.start ~poll_interval_s:0.001 () in
  check_true "restart yields a running consumer" (Obs.Events.running ());
  spin
    (fun () ->
      churn ();
      Obs.Events.cumulative_pause_ns () > 0)
    "restarted consumer attributes pauses";
  Obs.Events.stop t2

let test_start_validation_and_idempotency () =
  (match Obs.Events.start ~poll_interval_s:0.0 () with
  | exception Invalid_argument _ -> ()
  | t ->
      Obs.Events.stop t;
      Alcotest.fail "non-positive poll interval accepted");
  let a = Obs.Events.start ~poll_interval_s:0.01 () in
  let b = Obs.Events.start ~poll_interval_s:0.02 () in
  check_true "second start returns the running consumer" (a == b);
  Obs.Events.stop a;
  check_true "shared handle stops both" (not (Obs.Events.running ()))

let test_ring_file_and_debug_json () =
  let file = Obs.Events.ring_file () in
  check_true "ring file is pid-named"
    (contains_substring file (string_of_int (Unix.getpid ()) ^ ".events"));
  (match Obs.Events.debug_json () with
  | Obs.Json.Obj fields ->
      check_true "idle debug json reports not running"
        (List.assoc_opt "running" fields = Some (Obs.Json.Bool false))
  | _ -> Alcotest.fail "debug_json is not an object");
  let t = Obs.Events.start () in
  (match Obs.Events.debug_json () with
  | Obs.Json.Obj fields ->
      check_true "live debug json reports running"
        (List.assoc_opt "running" fields = Some (Obs.Json.Bool true));
      check_true "live debug json names the ring file"
        (match List.assoc_opt "ring_file" fields with
        | Some (Obs.Json.String s) -> s = file
        | _ -> false)
  | _ -> Alcotest.fail "debug_json is not an object");
  Obs.Events.stop t

let suite =
  [
    case "pauses: histograms fill under allocation soak" test_pause_soak;
    case "bridge: spans round-trip through a second cursor"
      test_bridge_roundtrip;
    case "stop: prompt, idempotent, restartable"
      test_stop_is_prompt_and_idempotent;
    case "start: validation and idempotency"
      test_start_validation_and_idempotency;
    case "introspection: ring file and debug json"
      test_ring_file_and_debug_json;
  ]
