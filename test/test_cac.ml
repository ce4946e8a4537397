open Helpers

let ar1_vg rho variance =
  Core.Variance_growth.create ~variance ~tail:`Decreasing
    ~acf:(fun k -> rho ** float_of_int k)

(* {2 Core.Admission edge cases} *)

let test_max_admissible_zero () =
  (* Capacity barely above the mean and no buffer: even one source
     misses a 1e-9 target, so the admissible region is empty. *)
  let vg = ar1_vg 0.9 5000.0 in
  check_int "empty admissible region" 0
    (Core.Admission.max_admissible vg ~mu:500.0 ~total_capacity:505.0
       ~total_buffer:0.0 ~target_clr:1e-9)

let test_max_admissible_monotone_in_buffer () =
  let vg = ar1_vg 0.9 5000.0 in
  let admissible total_buffer =
    Core.Admission.max_admissible vg ~mu:500.0 ~total_capacity:16140.0
      ~total_buffer ~target_clr:1e-6
  in
  let prev = ref 0 in
  List.iter
    (fun b ->
      let n = admissible b in
      check_true
        (Printf.sprintf "admissible N non-decreasing at B = %g" b)
        (n >= !prev);
      prev := n)
    [ 0.0; 500.0; 2000.0; 8000.0; 32000.0 ]

let test_effective_bandwidth_bounds () =
  let mu = 500.0 and variance = 5000.0 in
  let vg = ar1_vg 0.8 variance in
  let eb n =
    Core.Admission.effective_bandwidth_per_source vg ~mu ~n
      ~total_buffer:4035.0 ~target_clr:1e-6
  in
  let peak = mu +. (5.0 *. sqrt variance) in
  List.iter
    (fun n ->
      let e = eb n in
      check_true (Printf.sprintf "eb(%d) above mean" n) (e > mu);
      check_true (Printf.sprintf "eb(%d) below peak" n) (e < peak))
    [ 1; 5; 30 ];
  check_true "multiplexing gain: eb decreasing in n" (eb 30 <= eb 5 +. 1e-9)

(* {2 Decision cache} *)

let test_cache_memoises () =
  let cache = Cac.Decision_cache.create ~capacity:8 in
  let computed = ref 0 in
  let compute () =
    incr computed;
    42
  in
  check_int "first lookup computes" 42
    (Cac.Decision_cache.find_or_add cache "k" ~compute);
  check_int "second lookup cached" 42
    (Cac.Decision_cache.find_or_add cache "k" ~compute);
  check_int "computed once" 1 !computed;
  let stats = Cac.Decision_cache.stats cache in
  check_int "one hit" 1 stats.Cac.Decision_cache.hits;
  check_int "one miss" 1 stats.Cac.Decision_cache.misses

let test_cache_lru_eviction () =
  let cache = Cac.Decision_cache.create ~capacity:2 in
  let add k = ignore (Cac.Decision_cache.find_or_add cache k ~compute:(fun () -> k)) in
  add 1;
  add 2;
  add 1;
  (* touch 1: 2 becomes LRU *)
  add 3;
  let stats () = Cac.Decision_cache.stats cache in
  check_int "bounded size" 2 (stats ()).Cac.Decision_cache.entries;
  check_int "one eviction" 1 (stats ()).Cac.Decision_cache.evictions;
  (* A lookup that computes is a miss: 1 must hit, 2 must miss. *)
  let cached k =
    let computed = ref false in
    ignore
      (Cac.Decision_cache.find_or_add cache k ~compute:(fun () ->
           computed := true;
           k));
    not !computed
  in
  check_true "recently-used entry kept" (cached 1);
  check_true "evicted the LRU entry" (not (cached 2))

let test_cache_capacity_zero_disables () =
  let cache = Cac.Decision_cache.create ~capacity:0 in
  let computed = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Cac.Decision_cache.find_or_add cache "k" ~compute:(fun () ->
           incr computed;
           0))
  done;
  check_int "always recomputes" 3 !computed;
  check_int "stores nothing" 0
    (Cac.Decision_cache.stats cache).Cac.Decision_cache.entries

(* {2 Engine invariants} *)

let zero_clock () = 0.0

let fresh_engine ?(cache_capacity = 4096) ?(buffer_msec = 10.0)
    ?(target_clr = 1e-6) () =
  let engine = Cac.Engine.create ~cache_capacity ~clock:zero_clock () in
  let _ =
    Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0 ~buffer_msec
      ~target_clr
  in
  engine

(* The journal writes link dimensions as JSON numbers, which cannot
   hold inf or nan; the engine refuses them at the door, in cells and
   in msec alike, and registers nothing. *)
let test_engine_refuses_bad_dimensions () =
  let engine = Cac.Engine.create ~clock:zero_clock () in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun capacity ->
      let what = Printf.sprintf "capacity %g" capacity in
      refused what (fun () ->
          Cac.Engine.add_link engine ~id:"l" ~capacity ~buffer:100.0
            ~target_clr:1e-6);
      refused (what ^ " (msec)") (fun () ->
          Cac.Engine.add_link_msec engine ~id:"l" ~capacity ~buffer_msec:20.0
            ~target_clr:1e-6))
    [ infinity; nan; -5.0; 0.0 ];
  List.iter
    (fun buffer ->
      let what = Printf.sprintf "buffer %g" buffer in
      refused what (fun () ->
          Cac.Engine.add_link engine ~id:"l" ~capacity:16140.0 ~buffer
            ~target_clr:1e-6);
      refused (what ^ " (msec)") (fun () ->
          Cac.Engine.add_link_msec engine ~id:"l" ~capacity:16140.0
            ~buffer_msec:buffer ~target_clr:1e-6))
    [ infinity; nan; -5.0 ];
  check_int "no link registered" 0 (List.length (Cac.Engine.links engine))

let test_engine_fill_matches_max_admissible () =
  let cls = Cac.Source_class.of_name_exn "dar2" in
  let engine = fresh_engine () in
  let n = Cac.Engine.fill engine ~link:"oc3" ~cls in
  let total_buffer =
    Queueing.Units.buffer_cells_of_msec ~msec:10.0
      ~service_cells_per_frame:16140.0 ~ts:Traffic.Models.ts
  in
  let expected =
    Core.Admission.max_admissible cls.Cac.Source_class.vg
      ~mu:(Cac.Source_class.mean cls) ~total_capacity:16140.0 ~total_buffer
      ~target_clr:1e-6
  in
  check_int "fill reproduces max_admissible" expected n;
  check_true "something admitted" (n > 0)

let test_engine_never_exceeds_capacity () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let engine = fresh_engine () in
  let _ = Cac.Engine.fill engine ~link:"oc3" ~cls in
  let link = Cac.Engine.link engine "oc3" in
  check_true "mean load strictly below capacity"
    (Cac.Link.mean_load link < Cac.Link.capacity link);
  check_true "utilization below 1" (Cac.Link.utilization link < 1.0);
  (* Saturated: one more of the same class must be rejected. *)
  (match Cac.Engine.admit engine ~link:"oc3" ~cls with
  | Cac.Engine.Rejected _ -> ()
  | Cac.Engine.Admitted _ -> Alcotest.fail "admitted past the boundary")

let test_engine_release_restores_state () =
  let cls = Cac.Source_class.of_name_exn "dar2" in
  let engine = fresh_engine () in
  let conns = ref [] in
  let rec fill () =
    match Cac.Engine.admit engine ~link:"oc3" ~cls with
    | Cac.Engine.Admitted conn ->
        conns := conn :: !conns;
        fill ()
    | Cac.Engine.Rejected _ -> ()
  in
  fill ();
  let n_max = List.length !conns in
  let link = Cac.Engine.link engine "oc3" in
  check_int "bookkeeping matches" n_max (Cac.Link.connections link);
  let admissible () =
    (Cac.Engine.evaluate engine ~link:"oc3" ~cls).Cac.Engine.admissible
  in
  check_true "saturated" (not (admissible ()));
  (* Release one connection: exactly one slot reopens. *)
  Cac.Engine.release engine ~conn:(List.hd !conns);
  check_int "one slot freed" (n_max - 1) (Cac.Link.connections link);
  check_true "admissible again" (admissible ());
  (match Cac.Engine.admit engine ~link:"oc3" ~cls with
  | Cac.Engine.Admitted _ -> ()
  | Cac.Engine.Rejected _ -> Alcotest.fail "slot not reopened");
  check_true "saturated again" (not (admissible ()));
  (* Release every original connection still up. *)
  List.iter (fun conn -> Cac.Engine.release engine ~conn) (List.tl !conns);
  (* The replacement connection is still up. *)
  check_int "one connection left" 1 (Cac.Link.connections link)

let test_engine_cached_equals_uncached () =
  (* The decision must not depend on whether it was computed or
     recalled: replay the same workload through a caching and a
     cache-disabled engine and compare every outcome. *)
  let mix =
    [
      (Cac.Source_class.of_name_exn "dar1", 2.0);
      (Cac.Source_class.of_name_exn "dar3", 1.0);
    ]
  in
  let spec =
    Cac.Workload.spec ~arrival_rate:0.5 ~mean_holding:50.0 ~requests:800 ~mix ()
  in
  let replay ~cache_capacity =
    let engine = fresh_engine ~cache_capacity () in
    Cac.Workload.run engine ~link:"oc3" spec (Numerics.Rng.create ~seed:11)
  in
  let cached = replay ~cache_capacity:4096 in
  let uncached = replay ~cache_capacity:0 in
  check_int "same admits" cached.Cac.Workload.admitted
    uncached.Cac.Workload.admitted;
  check_int "same rejects" cached.Cac.Workload.rejected
    uncached.Cac.Workload.rejected;
  check_int "same final occupancy" cached.Cac.Workload.final_occupancy
    uncached.Cac.Workload.final_occupancy;
  check_close ~tol:0.0 "same mean occupancy"
    cached.Cac.Workload.mean_occupancy uncached.Cac.Workload.mean_occupancy;
  check_true "cache was exercised" (cached.Cac.Workload.cache_hit_rate > 0.5);
  check_close ~tol:0.0 "uncached path never hits" 0.0
    uncached.Cac.Workload.cache_hit_rate

let test_engine_verdict_stable_across_repeats () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let engine = fresh_engine () in
  let v1 = Cac.Engine.evaluate engine ~link:"oc3" ~cls in
  let v2 = Cac.Engine.evaluate engine ~link:"oc3" ~cls in
  check_true "hit and miss verdicts identical" (v1 = v2)

let test_engine_heterogeneous_mix () =
  let dar1 = Cac.Source_class.of_name_exn "dar1" in
  let dar2 = Cac.Source_class.of_name_exn "dar2" in
  let engine = fresh_engine () in
  (match Cac.Engine.admit engine ~link:"oc3" ~cls:dar1 with
  | Cac.Engine.Admitted _ -> ()
  | Cac.Engine.Rejected _ -> Alcotest.fail "first connection rejected");
  (match Cac.Engine.admit engine ~link:"oc3" ~cls:dar2 with
  | Cac.Engine.Admitted _ -> ()
  | Cac.Engine.Rejected _ -> Alcotest.fail "second class rejected");
  let verdict = Cac.Engine.evaluate engine ~link:"oc3" ~cls:dar2 in
  check_true "mixed links use the effective-bandwidth path"
    (verdict.Cac.Engine.required_bw <> None);
  let link = Cac.Engine.link engine "oc3" in
  check_int "two classes tracked" 2 (List.length (Cac.Link.counts link));
  check_int "two connections" 2 (Cac.Link.connections link);
  check_close ~tol:1e-9 "mean load adds up"
    (Cac.Source_class.mean dar1 +. Cac.Source_class.mean dar2)
    (Cac.Link.mean_load link)

(* The decision verdicts of the cache-off benchmark set-up: five 16140
   cells/frame links at CLR 1e-6 across 0.5-30 ms, three homogeneous
   and two mixed, each preloaded to 20 connections.  A decide of a
   homogeneous link's own class reports log10 BOP; every other decide
   prices a mix and reports the required bandwidth.  Pinned to the bit,
   and so is the kernel work the ten decisions take. *)
let test_engine_decide_verdicts_pinned () =
  let engine = Cac.Engine.create ~cache_capacity:0 ~clock:zero_clock () in
  let z = "z0.975" and dar = "dar3" in
  List.iter
    (fun (id, buffer_msec, preload) ->
      ignore
        (Cac.Engine.add_link_msec engine ~id ~capacity:16140.0 ~buffer_msec
           ~target_clr:1e-6);
      List.iter
        (fun (cls, n) ->
          for _ = 1 to n do
            match Cac.Engine.admit engine ~link:id ~cls:(Cac.Source_class.of_name_exn cls) with
            | Cac.Engine.Admitted _ -> ()
            | Cac.Engine.Rejected _ -> Alcotest.failf "preload of %s on %s rejected" cls id
          done)
        preload)
    [
      ("b0.5", 0.5, [ (z, 20) ]);
      ("b2", 2.0, [ (dar, 20) ]);
      ("b5", 5.0, [ (z, 20) ]);
      ("b10", 10.0, [ (z, 10); (dar, 10) ]);
      ("b30", 30.0, [ (z, 10); (dar, 10) ]);
    ];
  let evaluations () = Obs.Registry.counter_value "bahadur_rao.evaluations" in
  let scan_steps () = Obs.Registry.counter_value "bahadur_rao.infimum_iterations" in
  let evaluations0 = evaluations () and scan_steps0 = scan_steps () in
  List.iter
    (fun (link, cls, log10_bop, required_bw) ->
      let v = Cac.Engine.evaluate engine ~link ~cls:(Cac.Source_class.of_name_exn cls) in
      let what = Printf.sprintf "(%s, %s)" link cls in
      check_true (what ^ " admissible") v.Cac.Engine.admissible;
      check_true (what ^ " not degraded") (not v.Cac.Engine.degraded);
      let pinned name expected got =
        match (expected, got) with
        | None, None -> ()
        | Some x, Some y -> check_bits (what ^ " " ^ name) x y
        | _ -> Alcotest.failf "%s: %s present where it should not be, or missing" what name
      in
      pinned "log10_bop" log10_bop v.Cac.Engine.log10_bop;
      pinned "required_bw" required_bw v.Cac.Engine.required_bw)
    [
      ("b0.5", z, Some (-72.230048686334797), None);
      ("b0.5", dar, None, Some 12102.933826446533);
      ("b2", z, None, Some 11946.957206726074);
      ("b2", dar, Some (-84.649083725999574), None);
      ("b5", z, Some (-94.145585592607418), None);
      ("b5", dar, None, Some 11803.783588409424);
      ("b10", z, None, Some 11865.55046081543);
      ("b10", dar, None, Some 11864.189925193787);
      ("b30", z, None, Some 11509.387278556824);
      ("b30", dar, None, Some 11504.385805130005);
    ];
  (* The plain bisection made 295 evaluations and 277,557 scan steps
     here; the replay skips its costly points close to the mean load.
     The heuristic stop took 53,222 steps for the same 157 scans; the
     certificate stops each where no later m can beat its minimum. *)
  check_int "Bahadur-Rao evaluations" 157 (evaluations () - evaluations0);
  check_int "CTS scan steps" 4_886 (scan_steps () - scan_steps0)

(* A table whose scan never proves a minimum: an [`Unknown] tail and
   r(k) = 0.5 at every lag, so V(m) grows like m^2 and the objective
   keeps falling.  The scan runs to its step cap; the kernel must
   refuse to price that, and the engine must decide degraded. *)
let test_capped_scan_degrades () =
  let flat =
    Cac.Source_class.of_process
      {
        Traffic.Process.name = "flat-acf";
        mean = 500.0;
        variance = 5000.0;
        acf = (fun k -> if k = 0 then 1.0 else 0.5);
        hurst = None;
        tail = `Unknown;
        spawn = (fun _ () -> 500.0);
      }
  in
  let vg = flat.Cac.Source_class.vg in
  let a = Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b:100.0 in
  check_int "the scan ran to the cap" 2_000_000 a.Core.Cts.scanned_up_to;
  check_true "and says so" a.Core.Cts.capped;
  (match Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b:100.0 ~n:1 with
  | exception Resilience.Guard.Non_finite _ -> ()
  | _ -> Alcotest.fail "a capped scan was priced");
  (* Its overstated rate still bounds the BOP from below: enough for the
     effective-bandwidth search to prove a target missed, never met. *)
  let margin target_clr =
    Core.Admission.capacity_margin vg ~mu:500.0 ~n:1 ~total_buffer:100.0
      ~target_clr 538.0
  in
  check_true "a capped scan proves CLR 1e-6 missed" (margin 1e-6 > 0.0);
  (match margin 0.9 with
  | exception Resilience.Guard.Non_finite _ -> ()
  | _ -> Alcotest.fail "a capped scan proved CLR 0.9 met");
  let engine = Cac.Engine.create ~cache_capacity:0 () in
  ignore
    (Cac.Engine.add_link engine ~id:"flat" ~capacity:538.0 ~buffer:100.0
       ~target_clr:1e-6);
  let evaluations () = Obs.Registry.counter_value "bahadur_rao.evaluations" in
  let before = evaluations () in
  let v = Cac.Engine.evaluate engine ~link:"flat" ~cls:flat in
  check_true "degraded" v.Cac.Engine.degraded;
  check_true "no BOP from a capped scan" (Option.is_none v.Cac.Engine.log10_bop);
  (* The kernel is pure: a second run could only scan to the cap
     again, so the decision runs it exactly once. *)
  check_int "one kernel evaluation for the decision" 1 (evaluations () - before)

let latency_observations () =
  match Obs.Registry.histogram_snapshot "cac.engine.decision_latency_us" with
  | Some h -> h.Obs.Registry.count
  | None -> 0

let test_engine_metrics_consistency () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let engine = fresh_engine () in
  let observed_before = latency_observations () in
  let spec =
    Cac.Workload.spec ~arrival_rate:0.6 ~mean_holding:50.0 ~requests:500
      ~mix:[ (cls, 1.0) ] ()
  in
  let result =
    Cac.Workload.run engine ~link:"oc3" spec (Numerics.Rng.create ~seed:3)
  in
  let m = Cac.Engine.metrics engine in
  check_int "metrics admits" result.Cac.Workload.admitted (Cac.Metrics.admits m);
  check_int "metrics rejects" result.Cac.Workload.rejected
    (Cac.Metrics.rejects m);
  check_int "every request decided" 500 (Cac.Metrics.decisions m);
  check_close ~tol:1e-12 "blocking probability"
    result.Cac.Workload.blocking
    (Cac.Metrics.blocking_probability m);
  check_int "latency histogram complete" 500
    (latency_observations () - observed_before)

(* Decision latency lives in the registry histogram; the engine keeps
   fixed-size counts, so its memory does not grow with traffic. *)
let test_engine_memory_bounded () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let engine = fresh_engine () in
  let cycles n =
    for _ = 1 to n do
      match Cac.Engine.admit engine ~link:"oc3" ~cls with
      | Cac.Engine.Admitted conn -> Cac.Engine.release engine ~conn
      | Cac.Engine.Rejected _ -> Alcotest.fail "empty link rejected"
    done
  in
  cycles 2_000;
  let words = Obj.reachable_words (Obj.repr engine) in
  cycles 20_000;
  check_int "reachable words after 2k and 22k cycles" words
    (Obj.reachable_words (Obj.repr engine));
  check_int "every cycle counted" 22_000
    (Cac.Metrics.releases (Cac.Engine.metrics engine))

(* [mean_latency_us] is the run's (latency sum, decisions) delta: a
   clock that advances 2 us per read makes every decision take 2 us,
   whatever the engine recorded before the run. *)
let test_workload_mean_latency () =
  let now = ref 0.0 in
  let clock () =
    now := !now +. 2e-6;
    !now
  in
  let engine = Cac.Engine.create ~clock () in
  let _ =
    Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
      ~buffer_msec:10.0 ~target_clr:1e-6
  in
  let cls = Cac.Source_class.of_name_exn "dar1" in
  ignore (Cac.Engine.fill engine ~link:"oc3" ~cls);
  let spec =
    Cac.Workload.spec ~arrival_rate:0.6 ~mean_holding:50.0 ~requests:300
      ~mix:[ (cls, 1.0) ] ()
  in
  let r =
    Cac.Workload.run engine ~link:"oc3" spec (Numerics.Rng.create ~seed:9)
  in
  check_close ~tol:1e-6 "mean decision latency" 2.0
    r.Cac.Workload.mean_latency_us;
  check_close ~tol:1e-6 "engine-lifetime mean agrees" 2.0
    (Cac.Metrics.latency_mean_us (Cac.Engine.metrics engine))

let test_workload_deterministic () =
  let cls = Cac.Source_class.of_name_exn "dar2" in
  let spec =
    Cac.Workload.spec ~arrival_rate:0.6 ~mean_holding:40.0 ~requests:1000
      ~mix:[ (cls, 1.0) ] ()
  in
  let replay seed =
    let engine = fresh_engine () in
    Cac.Workload.run engine ~link:"oc3" spec (Numerics.Rng.create ~seed)
  in
  let a = replay 5 and b = replay 5 and c = replay 6 in
  check_true "same seed, same replay"
    (a.Cac.Workload.admitted = b.Cac.Workload.admitted
    && a.Cac.Workload.mean_occupancy = b.Cac.Workload.mean_occupancy
    && a.Cac.Workload.duration = b.Cac.Workload.duration);
  check_true "different seed, different replay"
    (a.Cac.Workload.duration <> c.Cac.Workload.duration)

let test_workload_steady_state_cache_hits () =
  let cls = Cac.Source_class.of_name_exn "dar1" in
  let engine = fresh_engine () in
  let spec =
    Cac.Workload.spec ~arrival_rate:0.6 ~mean_holding:50.0 ~requests:3000
      ~mix:[ (cls, 1.0) ] ()
  in
  let result =
    Cac.Workload.run engine ~link:"oc3" spec (Numerics.Rng.create ~seed:17)
  in
  check_true "steady-state cache hit rate >= 90%"
    (result.Cac.Workload.steady_cache_hit_rate >= 0.9);
  check_true "blocking in [0, 1]"
    (result.Cac.Workload.blocking >= 0.0 && result.Cac.Workload.blocking <= 1.0)

let test_sweep_parallel_equals_sequential () =
  let scenarios =
    Cac.Sweep.grid ~requests:400 ~class_names:[ "dar1"; "dar2" ]
      ~buffers_msec:[ 5.0; 10.0 ] ~target_clrs:[ 1e-6 ] ()
  in
  let sequential = Cac.Sweep.run ~domains:1 scenarios in
  let parallel = Cac.Sweep.run ~domains:4 scenarios in
  check_int "same row count" (Array.length sequential) (Array.length parallel);
  Array.iteri
    (fun i seq ->
      check_true
        (Printf.sprintf "row %d identical under parallelism" i)
        (seq = parallel.(i)))
    sequential;
  Array.iter
    (fun row ->
      check_true "sweep admitted something" (row.Cac.Sweep.n_max > 0);
      match row.Cac.Sweep.cache_hit_rate with
      | Some h -> check_true "sweep replay hit rate sane" (h >= 0.0 && h <= 1.0)
      | None -> Alcotest.fail "sweep replay missing")
    (Cac.Sweep.rows sequential);
  check_int "no failed scenarios" 0
    (List.length (Cac.Sweep.failures sequential))

(* Worker domains must restore the submitting domain's trace context:
   every [cac.sweep.task] span emitted by a parallel run carries the
   caller's trace id in the JSONL sink. *)
let test_sweep_trace_inheritance () =
  let scenarios =
    Cac.Sweep.grid ~class_names:[ "dar1" ] ~buffers_msec:[ 5.0; 10.0 ]
      ~target_clrs:[ 1e-6; 1e-9 ] ()
  in
  let trace = Obs.Trace.generate () in
  let path = Filename.temp_file "sweep_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_trace_sink Obs.Sink.Null;
      close_out_noerr oc)
    (fun () ->
      Obs.Span.set_trace_sink (Obs.Sink.Channel oc);
      Obs.Trace.with_context trace (fun () ->
          ignore (Cac.Sweep.run ~domains:3 scenarios)));
  let lines = ref [] in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> ());
  let task_spans =
    List.filter_map
      (fun line ->
        match Obs.Json.of_string line with
        | Some j
          when Obs.Json.member "name" j
               = Some (Obs.Json.String "cac.sweep.task") ->
            Some j
        | _ -> None)
      !lines
  in
  check_int "one task span per scenario" (List.length scenarios)
    (List.length task_spans);
  List.iter
    (fun span ->
      check_true "task span carries the submitter's trace id"
        (Obs.Json.member "trace" span
        = Some (Obs.Json.String trace.Obs.Trace.trace_id)))
    task_spans

let test_sweep_grid_shape () =
  let scenarios =
    Cac.Sweep.grid ~class_names:[ "dar1"; "l" ] ~buffers_msec:[ 10.0; 20.0; 30.0 ]
      ~target_clrs:[ 1e-6; 1e-9 ] ()
  in
  check_int "cartesian product" 12 (List.length scenarios);
  let seeds = List.map (fun s -> s.Cac.Sweep.seed) scenarios in
  check_int "per-scenario seeds distinct"
    (List.length seeds)
    (List.length (List.sort_uniq Int.compare seeds))

let suite =
  [
    case "max_admissible empty region" test_max_admissible_zero;
    case "max_admissible monotone in buffer" test_max_admissible_monotone_in_buffer;
    case "effective bandwidth bounds" test_effective_bandwidth_bounds;
    case "cache memoises" test_cache_memoises;
    case "cache LRU eviction" test_cache_lru_eviction;
    case "cache capacity 0 disables" test_cache_capacity_zero_disables;
    case "fill matches max_admissible" test_engine_fill_matches_max_admissible;
    case "never exceeds capacity" test_engine_never_exceeds_capacity;
    case "release restores state" test_engine_release_restores_state;
    case "cached = uncached decisions" test_engine_cached_equals_uncached;
    case "verdict stable across repeats" test_engine_verdict_stable_across_repeats;
    case "heterogeneous mix" test_engine_heterogeneous_mix;
    case "decide verdicts pinned (cache off, 0.5-30 ms)" test_engine_decide_verdicts_pinned;
    case "capped CTS scan decides degraded" test_capped_scan_degrades;
    case "engine refuses non-finite link dimensions"
      test_engine_refuses_bad_dimensions;
    case "metrics consistency" test_engine_metrics_consistency;
    case "engine memory bounded under churn" test_engine_memory_bounded;
    case "workload mean latency via sum delta" test_workload_mean_latency;
    case "workload deterministic" test_workload_deterministic;
    case "steady-state cache hits" test_workload_steady_state_cache_hits;
    case "sweep parallel = sequential" test_sweep_parallel_equals_sequential;
    case "sweep trace inheritance" test_sweep_trace_inheritance;
    case "sweep grid shape" test_sweep_grid_shape;
  ]
