open Helpers

(* The runtime-events profiler: pause histograms fill under
   allocation pressure, and the consumer stops cleanly (no lost-wakeup
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

(* Pauses observed into [runtime.ev.gc.pause.us], over every series
   whose labels satisfy [keep]. *)
let gc_pause_observations ?(keep = fun _ -> true) () =
  let snap = Obs.Registry.snapshot () in
  List.fold_left
    (fun acc ((name, labels), h) ->
      if String.equal name "runtime.ev.gc.pause.us" && keep labels then
        acc + h.Obs.Registry.count
      else acc)
    0 snap.Obs.Registry.histograms

let test_pause_soak () =
  let before = gc_pause_observations () in
  let t = Obs.Events.start () in
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
  let this_domain labels =
    List.assoc_opt "domain" (Obs.Labels.to_list labels)
    = Some (string_of_int (Domain.self () :> int))
  in
  spin
    (fun () -> gc_pause_observations ~keep:this_domain () > 0)
    "runtime.ev.gc.pause.us{domain} never covered this domain";
  Obs.Events.stop t;
  check_true "stopped consumer reports not running"
    (not (Obs.Events.running ()))

let test_stop_is_prompt_and_idempotent () =
  let t = Obs.Events.start () in
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
  let t2 = Obs.Events.start () in
  check_true "restart yields a running consumer" (Obs.Events.running ());
  spin
    (fun () ->
      churn ();
      Obs.Events.cumulative_pause_ns () > 0)
    "restarted consumer attributes pauses";
  Obs.Events.stop t2

let test_start_validation_and_idempotency () =
  let a = Obs.Events.start () in
  let b = Obs.Events.start () in
  check_true "second start returns the running consumer" (a == b);
  Obs.Events.stop a;
  check_true "shared handle stops both" (not (Obs.Events.running ()))

(* The /debug/vars section is pinned to its fields, idle and live;
   per-domain totals live on /metrics, not here. *)
let test_debug_json () =
  let fields () =
    match Obs.Events.debug_json () with
    | Obs.Json.Obj fields -> fields
    | _ -> Alcotest.fail "debug_json is not an object"
  in
  let idle = fields () in
  check_true "idle: exactly running" (List.map fst idle = [ "running" ]);
  check_true "idle debug json reports not running"
    (List.assoc "running" idle = Obs.Json.Bool false);
  let t = Obs.Events.start () in
  Fun.protect ~finally:(fun () -> Obs.Events.stop t) @@ fun () ->
  let live = fields () in
  check_true "live: exactly running, poll_interval_s, top_pauses"
    (List.map fst live = [ "running"; "poll_interval_s"; "top_pauses" ]);
  check_true "live debug json reports running"
    (List.assoc "running" live = Obs.Json.Bool true)

let suite =
  [
    case "pauses: histograms fill under allocation soak" test_pause_soak;
    case "stop: prompt, idempotent, restartable"
      test_stop_is_prompt_and_idempotent;
    case "start: validation and idempotency"
      test_start_validation_and_idempotency;
    case "introspection: debug json" test_debug_json;
  ]
