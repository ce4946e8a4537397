open Helpers

(* Every test leaves the process-wide fault registry disarmed: the
   suites after this one must run fault-free. *)
let with_faults ?seed rules f =
  (match Resilience.Fault.parse rules with
  | Ok rs -> Resilience.Fault.configure ?seed rs
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" rules msg);
  Fun.protect ~finally:Resilience.Fault.clear f

(* {2 Fault specs} *)

let test_fault_parse_roundtrip () =
  let spec = "bahadur_rao.evaluate=nan:0.01,cac.sweep.task=raise:0.2" in
  match Resilience.Fault.parse spec with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok rules ->
      check_int "two rules" 2 (List.length rules);
      check_true "roundtrip"
        (Resilience.Fault.to_string rules = spec);
      (match Resilience.Fault.parse "" with
      | Ok [] -> ()
      | _ -> Alcotest.fail "empty spec should parse to no rules");
      (match
         Resilience.Fault.parse "bahadur_rao.evaluate=latency:1:250"
       with
      | Ok [ { Resilience.Fault.kind = Latency_us us; rate; _ } ] ->
          check_close "latency param" 250.0 us;
          check_close "rate" 1.0 rate
      | Ok _ -> Alcotest.fail "expected one latency rule"
      | Error msg -> Alcotest.failf "latency rule rejected: %s" msg)

let test_fault_parse_rejects () =
  let rejected s =
    match Resilience.Fault.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should be rejected" s
  in
  rejected "no_such.point=raise";
  rejected "bahadur_rao.evaluate=frobnicate";
  (* nan only makes sense at float-valued points *)
  rejected "cac.sweep.task=nan";
  rejected "bahadur_rao.evaluate=raise:0";
  rejected "bahadur_rao.evaluate=raise:1.5";
  rejected "bahadur_rao.evaluate"

let test_fault_deterministic_stream () =
  let fire_pattern () =
    Resilience.Fault.reseed 2024;
    List.init 64 (fun _ ->
        match Resilience.Fault.inject "cac.workload.admit" with
        | () -> false
        | exception Resilience.Fault.Injected _ -> true)
  in
  with_faults ~seed:2024 "cac.workload.admit=raise:0.4" @@ fun () ->
  let first = fire_pattern () in
  let second = fire_pattern () in
  check_true "some faults fired" (List.mem true first);
  check_true "some calls survived" (List.mem false first);
  check_true "same seed, same firing sequence" (first = second)

let test_fault_disarmed_is_noop () =
  Resilience.Fault.clear ();
  check_true "inactive" (not (Resilience.Fault.active ()));
  Resilience.Fault.inject "cac.workload.admit";
  check_close "inject_float passes through" 3.5
    (Resilience.Fault.inject_float "bahadur_rao.evaluate" (fun () -> 3.5))

(* {2 Guard combinators} *)

let test_guard_finite () =
  check_close "finite passes" 1.5 (Resilience.Guard.finite ~label:"t" 1.5);
  let non_finite x =
    match Resilience.Guard.finite ~label:"t" x with
    | _ -> Alcotest.failf "%g should raise Non_finite" x
    | exception Resilience.Guard.Non_finite _ -> ()
  in
  non_finite Float.nan;
  non_finite Float.infinity;
  non_finite Float.neg_infinity

let test_guard_protect () =
  check_int "protect passes results" 7
    (Resilience.Guard.protect ~fallback:(fun _ -> -1)
       (fun () -> 7));
  check_int "protect absorbs into fallback" (-1)
    (Resilience.Guard.protect ~fallback:(fun _ -> -1)
       (fun () -> failwith "boom"))

(* The breaker trips after 5 consecutive failures and fast-fails the
   next 32 calls. *)
let threshold = 5
let cooldown = 32

let test_breaker_lifecycle () =
  let open Resilience.Guard.Breaker in
  let b = create () in
  let ok () = call b (fun () -> 1) in
  let boom () = call b (fun () -> failwith "kernel") in
  check_true "starts closed" (state b = Closed);
  check_true "healthy call passes" (ok () = Ok 1);
  (match boom () with
  | Error (Failed (Failure _)) -> ()
  | _ -> Alcotest.fail "first failure should surface the exception");
  for _ = 2 to threshold - 1 do
    ignore (boom ())
  done;
  check_true "one failure short of the threshold is not a trip"
    (state b = Closed);
  check_int "failure streak counted" (threshold - 1) (consecutive_failures b);
  ignore (boom ());
  check_true "threshold consecutive failures open it" (state b = Open);
  check_int "one trip recorded" 1 (trips b);
  (* The cooldown fast-fails without running the thunk. *)
  let ran = ref false in
  let fast_fail () =
    match
      call b (fun () ->
          ran := true;
          0)
    with
    | Error Tripped -> ()
    | _ -> Alcotest.fail "cooldown call should fast-fail"
  in
  for _ = 1 to cooldown - 1 do
    fast_fail ()
  done;
  check_true "still open one call before the cooldown ends" (state b = Open);
  fast_fail ();
  check_true "fast-fails never ran the thunk" (not !ran);
  check_true "cooldown spent: half-open" (state b = Half_open);
  (* Failed probe re-opens; successful probe recovers. *)
  ignore (boom ());
  check_true "failed probe re-trips" (state b = Open);
  check_int "second trip recorded" 2 (trips b);
  for _ = 1 to cooldown do
    ignore (call b (fun () -> 0))
  done;
  check_true "half-open again" (state b = Half_open);
  check_true "successful probe closes" (ok () = Ok 1);
  check_true "recovered" (state b = Closed);
  check_int "failure streak reset" 0 (consecutive_failures b);
  (* A success between failures resets the streak: no trip. *)
  for _ = 1 to threshold - 1 do
    ignore (boom ())
  done;
  ignore (ok ());
  ignore (boom ());
  check_true "streak interrupted, still closed" (state b = Closed)

(* {2 Fail-closed engine degradation} *)

let engine_with_link ?(capacity = 16140.0) () =
  let engine = Cac.Engine.create ~clock:(fun () -> 0.0) () in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"link" ~capacity ~buffer_msec:20.0
       ~target_clr:1e-6);
  engine

let test_engine_degrades_on_nan () =
  let cls = Cac.Source_class.of_name_exn "dar3" in
  let engine = engine_with_link () in
  with_faults ~seed:5 "bahadur_rao.evaluate=nan" @@ fun () ->
  let v = Cac.Engine.evaluate engine ~link:"link" ~cls in
  check_true "degraded" v.Cac.Engine.degraded;
  check_true "peak-rate admit for one connection" v.Cac.Engine.admissible;
  (match v.Cac.Engine.required_bw with
  | Some bw -> check_close ~tol:1e-9 "allocates the class peak rate"
      (Cac.Source_class.peak cls) bw
  | None -> Alcotest.fail "degraded verdict must report its allocation");
  check_true "no BOP from a degraded decision"
    (Option.is_none v.Cac.Engine.log10_bop)

(* The benchmark's mixed links: 10 Z^0.975 and 10 DAR(3) connections
   on 16140 cells/frame at 10 and 30 ms, cache off, so every decision
   prices the mix by the effective-bandwidth search. *)
let mixed_engine () =
  let engine = Cac.Engine.create ~cache_capacity:0 ~clock:(fun () -> 0.0) () in
  List.iter
    (fun (id, buffer_msec) ->
      ignore
        (Cac.Engine.add_link_msec engine ~id ~capacity:16140.0 ~buffer_msec
           ~target_clr:1e-6);
      List.iter
        (fun cls ->
          for _ = 1 to 10 do
            ignore (Cac.Engine.admit engine ~link:id ~cls:(Cac.Source_class.of_name_exn cls))
          done)
        [ "z0.975"; "dar3" ])
    [ ("b10", 10.0); ("b30", 30.0) ];
  engine

let mixed_decisions =
  List.concat_map
    (fun link -> List.map (fun cls -> (link, Cac.Source_class.of_name_exn cls)) [ "z0.975"; "dar3" ])
    [ "b10"; "b30" ]

let test_engine_mixed_degrades_on_nan () =
  let engine = mixed_engine () in
  let z = Cac.Source_class.of_name_exn "z0.975" in
  let dar = Cac.Source_class.of_name_exn "dar3" in
  with_faults ~seed:5 "bahadur_rao.evaluate=nan" @@ fun () ->
  let v = Cac.Engine.evaluate engine ~link:"b10" ~cls:z in
  check_true "degraded" v.Cac.Engine.degraded;
  match v.Cac.Engine.required_bw with
  | Some bw ->
      check_close_rel ~tol:1e-12 "allocates the mix's peak rate"
        ((11.0 *. Cac.Source_class.peak z) +. (10.0 *. Cac.Source_class.peak dar))
        bw
  | None -> Alcotest.fail "degraded verdict must report its allocation"

let test_engine_mixed_nan_never_moves_required_bw () =
  let engine = mixed_engine () in
  let clean = List.map (fun (link, cls) -> Cac.Engine.evaluate engine ~link ~cls) mixed_decisions in
  let degraded = ref 0 and exact = ref 0 in
  (with_faults ~seed:5 "bahadur_rao.evaluate=nan:0.02" @@ fun () ->
   for _ = 1 to 50 do
     List.iter2
       (fun (link, cls) want ->
         let v = Cac.Engine.evaluate engine ~link ~cls in
         if v.Cac.Engine.degraded then incr degraded
         else begin
           (* A NaN inside the search raises and degrades the verdict,
              so a clean verdict is the fault-free one. *)
           match (v.Cac.Engine.required_bw, want.Cac.Engine.required_bw) with
           | Some got, Some bw ->
               check_bits
                 (Printf.sprintf "(%s, %s) clean required_bw" link cls.Cac.Source_class.name)
                 bw got;
               incr exact
           | _ -> Alcotest.failf "(%s, %s): mixed verdict without required_bw" link
                    cls.Cac.Source_class.name
         end)
       mixed_decisions clean
   done);
  check_true (Printf.sprintf "some verdicts degraded (%d)" !degraded) (!degraded > 0);
  check_true (Printf.sprintf "some verdicts clean (%d)" !exact) (!exact > 0)

let test_engine_degraded_never_fails_open () =
  (* The chaos invariant: under total kernel failure the engine admits
     exactly what peak-rate allocation affords, never more. *)
  let cls = Cac.Source_class.of_name_exn "z0.975" in
  let capacity = 16140.0 in
  let peak_limit = int_of_float (capacity /. Cac.Source_class.peak cls) in
  let degraded_n =
    with_faults ~seed:5 "bahadur_rao.evaluate=raise" @@ fun () ->
    let engine = engine_with_link ~capacity () in
    Cac.Engine.fill engine ~link:"link" ~cls
  in
  check_int "degraded fill = peak-rate boundary" peak_limit degraded_n;
  let clean_n =
    let engine = engine_with_link ~capacity () in
    Cac.Engine.fill engine ~link:"link" ~cls
  in
  check_true "fail-closed: degraded admits no more than the healthy test"
    (degraded_n <= clean_n)

let test_engine_breaker_opens_and_recovers () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let engine = engine_with_link () in
  let state () = Cac.Engine.breaker_state engine ~link:"link" ~cls in
  let evaluate n =
    for _ = 1 to n do
      ignore (Cac.Engine.evaluate engine ~link:"link" ~cls)
    done
  in
  with_faults ~seed:5 "bahadur_rao.evaluate=raise" @@ fun () ->
  (* Each evaluate runs the kernel once: one breaker failure. *)
  evaluate (threshold - 1);
  check_true "closed below the threshold"
    (state () = Some Resilience.Guard.Breaker.Closed);
  evaluate 1;
  check_true "breaker open after threshold failures"
    (state () = Some Resilience.Guard.Breaker.Open);
  (* Open: decisions still answer (degraded), without touching the
     kernel; spend the cooldown. *)
  evaluate cooldown;
  check_true "half-open after the cooldown"
    (state () = Some Resilience.Guard.Breaker.Half_open);
  Resilience.Fault.clear ();
  let v = Cac.Engine.evaluate engine ~link:"link" ~cls in
  check_true "healthy probe yields a clean verdict"
    (not v.Cac.Engine.degraded);
  check_true "breaker recovered"
    (state () = Some Resilience.Guard.Breaker.Closed)

let test_engine_deterministic_replay () =
  let run () =
    with_faults ~seed:99 "bahadur_rao.evaluate=raise:0.3" @@ fun () ->
    Resilience.Fault.reseed 99;
    let cls = Cac.Source_class.of_name_exn "dar3" in
    let engine = engine_with_link () in
    (* Admit after each verdict so every decision sees fresh state (a
       fresh cache key) and stays exposed to the armed fault. *)
    let verdicts =
      List.init 40 (fun _ ->
          let v = Cac.Engine.evaluate engine ~link:"link" ~cls in
          ignore (Cac.Engine.admit engine ~link:"link" ~cls);
          (v.Cac.Engine.admissible, v.Cac.Engine.degraded))
    in
    (verdicts, Cac.Engine.active_connections engine)
  in
  let first = run () in
  let second = run () in
  check_true "same seed + spec reproduce identical decisions"
    (first = second);
  check_true "faults actually degraded something"
    (List.exists snd (fst first))

let test_cache_not_poisoned () =
  (* A raising compute must leave no entry behind... *)
  let cache = Cac.Decision_cache.create ~capacity:8 in
  (match
     Cac.Decision_cache.find_or_add cache "k" ~compute:(fun () ->
         failwith "compute died")
   with
  | _ -> Alcotest.fail "failing compute should raise"
  | exception Failure _ -> ());
  check_int "no entry cached for the failed compute" 0
    (Cac.Decision_cache.stats cache).Cac.Decision_cache.entries;
  check_int "recovered compute lands" 42
    (Cac.Decision_cache.find_or_add cache "k" ~compute:(fun () -> 42));
  (* ...and at the engine level, a NaN-corrupted kernel value must not
     be replayed from the cache once the fault clears. *)
  let cls = Cac.Source_class.of_name_exn "dar3" in
  let engine = engine_with_link () in
  (with_faults ~seed:5 "bahadur_rao.evaluate=nan" @@ fun () ->
   let v = Cac.Engine.evaluate engine ~link:"link" ~cls in
   check_true "corrupted evaluation degraded" v.Cac.Engine.degraded);
  let v = Cac.Engine.evaluate engine ~link:"link" ~cls in
  check_true "post-fault verdict is clean" (not v.Cac.Engine.degraded);
  (match v.Cac.Engine.log10_bop with
  | Some bop -> check_true "clean BOP is finite" (Float.is_finite bop)
  | None -> Alcotest.fail "healthy homogeneous verdict must carry a BOP")

(* {2 Crash-proof workload and sweep} *)

let test_workload_counts_errors () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let spec =
    Cac.Workload.spec ~arrival_rate:0.2 ~requests:400 ~mix:[ (cls, 1.0) ] ()
  in
  with_faults ~seed:11 "cac.workload.admit=raise:0.2" @@ fun () ->
  let engine = engine_with_link () in
  let result =
    Cac.Workload.run engine ~link:"link" spec (Numerics.Rng.create ~seed:11)
  in
  check_true "errors counted" (result.Cac.Workload.errors > 0);
  check_int "every request accounted" 400
    (result.Cac.Workload.admitted + result.Cac.Workload.rejected
    + result.Cac.Workload.errors);
  check_true "errors are fail-closed: they count as blocking"
    (result.Cac.Workload.blocking
    >= float_of_int result.Cac.Workload.errors /. 400.0)

let test_workload_spec_validation () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let rejected label f =
    match f () with
    | _ -> Alcotest.failf "%s should be rejected" label
    | exception Invalid_argument _ -> ()
  in
  rejected "nan arrival rate" (fun () ->
      Cac.Workload.spec ~arrival_rate:Float.nan ~requests:10
        ~mix:[ (cls, 1.0) ] ());
  rejected "zero arrival rate" (fun () ->
      Cac.Workload.spec ~arrival_rate:0.0 ~requests:10 ~mix:[ (cls, 1.0) ] ());
  rejected "infinite holding time" (fun () ->
      Cac.Workload.spec ~mean_holding:Float.infinity ~arrival_rate:1.0
        ~requests:10 ~mix:[ (cls, 1.0) ] ())

let sweep_scenarios () =
  Cac.Sweep.grid ~requests:0 ~seed:31
    ~class_names:[ "dar1"; "l" ]
    ~buffers_msec:[ 10.0; 20.0 ]
    ~target_clrs:[ 1e-6 ] ()

let test_sweep_survives_faults () =
  with_faults ~seed:31 "cac.sweep.task=raise:0.5" @@ fun () ->
  let errors = Obs.Registry.counter_value "cac.sweep.task_errors" in
  let outcomes = Cac.Sweep.run ~domains:2 (sweep_scenarios ()) in
  check_int "one outcome per scenario" 4 (Array.length outcomes);
  let failed = Cac.Sweep.failures outcomes in
  check_true "the armed faults killed at least one task" (failed <> []);
  check_int "each failed task ran once" (List.length failed)
    (Obs.Registry.counter_value "cac.sweep.task_errors" - errors);
  check_true "and not all of them"
    (Array.length (Cac.Sweep.rows outcomes) > 0);
  List.iter
    (fun f ->
      check_true "failure names the injected fault"
        (contains_substring f.Cac.Sweep.error "cac.sweep.task"))
    failed;
  (* Determinism across domain counts: per-task reseeding makes the
     fault pattern a function of the scenario, not the scheduler. *)
  let sequential = Cac.Sweep.run ~domains:1 (sweep_scenarios ()) in
  check_true "parallel chaos run equals sequential" (outcomes = sequential)

let test_sweep_table_renders_failures () =
  let outcomes =
    with_faults ~seed:31 "cac.sweep.task=raise:0.5" @@ fun () ->
    Cac.Sweep.run ~domains:1 (sweep_scenarios ())
  in
  let path = Filename.temp_file "cts_sweep" ".txt" in
  let oc = open_out path in
  Obs.Sink.set_human (Obs.Sink.Channel oc);
  Fun.protect ~finally:(fun () ->
      Obs.Sink.set_human (Obs.Sink.Channel stdout);
      close_out_noerr oc;
      Sys.remove path)
  @@ fun () ->
  Cac.Sweep.print_table outcomes;
  flush oc;
  let ic = open_in path in
  let table = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_true "failed scenarios render as ERROR rows"
    (contains_substring table "ERROR: ");
  check_true "no raw inf leaks into the table"
    (not (contains_substring table "inf"))

(* {2 Queueing simulator fault point}

   Both multiplexer simulators draw [queueing.mux.step] once per
   frame.  With a fixed seed, the frame on which the first fault fires
   must be identical run after run — the chaos experiments over the
   offline validation path are replayable. *)

let test_mux_step_fault_deterministic () =
  with_faults ~seed:42 "queueing.mux.step=raise:0.05" (fun () ->
      let fluid_run () =
        Resilience.Fault.reseed 42;
        let frames_fed = ref 0 in
        let next_frame () =
          incr frames_fed;
          if !frames_fed mod 7 = 0 then 120.0 else 95.0
        in
        match
          Queueing.Fluid_mux.clr ~next_frame ~service:100.0 ~buffer:50.0
            ~frames:500 ()
        with
        | _ -> (!frames_fed, "completed")
        | exception Resilience.Fault.Injected point -> (!frames_fed, point)
      in
      let a = fluid_run () in
      let b = fluid_run () in
      check_true "fluid mux drew the fault point"
        (snd a = "queueing.mux.step");
      check_true "first fault fires on the same frame both runs" (a = b);
      let cell_run () =
        Resilience.Fault.reseed 42;
        let frames_fed = ref 0 in
        let source () =
          incr frames_fed;
          10.0
        in
        match
          Queueing.Cell_mux.clr ~sources:[| source |]
            ~service_cells_per_frame:9.0 ~buffer_cells:20 ~ts:0.01 ~frames:500
            ()
        with
        | _ -> (!frames_fed, "completed")
        | exception Resilience.Fault.Injected point -> (!frames_fed, point)
      in
      let c = cell_run () in
      let d = cell_run () in
      check_true "cell mux drew the fault point" (snd c = "queueing.mux.step");
      check_true "cell mux replays identically" (c = d));
  (* disarmed, the hook must cost nothing and change nothing *)
  let r =
    let n = ref 0 in
    Queueing.Fluid_mux.clr
      ~next_frame:(fun () ->
        incr n;
        if !n mod 7 = 0 then 120.0 else 95.0)
      ~service:100.0 ~buffer:50.0 ~frames:500 ()
  in
  check_true "disarmed run completes with a sane CLR"
    (Float.is_finite r.Queueing.Fluid_mux.clr && r.Queueing.Fluid_mux.clr >= 0.0)

(* {2 Monotonic clock} *)

let test_clock_monotonic () =
  check_true "clock source is one of the two backends"
    (List.mem
       (Obs.Clock.source ())
       [ "clock_gettime(CLOCK_MONOTONIC)"; "gettimeofday(clamped)" ]);
  let prev = ref (Obs.Clock.monotonic_ns ()) in
  for _ = 1 to 1000 do
    let now = Obs.Clock.monotonic_ns () in
    check_true "monotonic_ns never runs backwards" (Int64.compare now !prev >= 0);
    prev := now
  done

let suite =
  [
    case "fault spec roundtrip" test_fault_parse_roundtrip;
    case "fault spec rejects bad rules" test_fault_parse_rejects;
    case "fault stream is seed-deterministic" test_fault_deterministic_stream;
    case "disarmed faults are no-ops" test_fault_disarmed_is_noop;
    case "finite guard" test_guard_finite;
    case "protect absorbs into fallback" test_guard_protect;
    case "breaker trip, half-open, recovery" test_breaker_lifecycle;
    case "NaN kernel degrades fail-closed" test_engine_degrades_on_nan;
    case "NaN kernel degrades a mixed decision" test_engine_mixed_degrades_on_nan;
    case "NaN at 2% never moves a clean mixed verdict"
      test_engine_mixed_nan_never_moves_required_bw;
    case "degraded fill stops at the peak-rate boundary"
      test_engine_degraded_never_fails_open;
    case "engine breaker opens and recovers" test_engine_breaker_opens_and_recovers;
    case "chaos decisions replay deterministically"
      test_engine_deterministic_replay;
    case "failed computes never poison the cache" test_cache_not_poisoned;
    case "workload survives admit faults" test_workload_counts_errors;
    case "workload spec validation" test_workload_spec_validation;
    case "sweep survives task faults" test_sweep_survives_faults;
    case "sweep table renders failures and no inf" test_sweep_table_renders_failures;
    case "mux step faults replay deterministically"
      test_mux_step_fault_deterministic;
    case "monotonic clock" test_clock_monotonic;
  ]
