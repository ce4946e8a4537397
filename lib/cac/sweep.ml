type scenario = {
  class_name : string;
  capacity : float;
  buffer_msec : float;
  target_clr : float;
  requests : int;
  seed : int;
}

type row = {
  scenario : scenario;
  n_max : int;
  eff_bw : float;
  utilization : float;
  blocking : float option;
  cache_hit_rate : float option;
}

type failure = { scenario : scenario; error : string }
type outcome = Row of row | Failed of failure

let grid ?(capacity = 16140.0) ?(requests = 0) ?(seed = 1996) ~class_names
    ~buffers_msec ~target_clrs () =
  let scenarios = ref [] in
  let index = ref 0 in
  List.iter
    (fun class_name ->
      List.iter
        (fun buffer_msec ->
          List.iter
            (fun target_clr ->
              scenarios :=
                {
                  class_name;
                  capacity;
                  buffer_msec;
                  target_clr;
                  requests;
                  (* Per-scenario seeds keep every cell's workload
                     independent of evaluation order. *)
                  seed = seed + (7919 * !index);
                }
                :: !scenarios;
              incr index)
            target_clrs)
        buffers_msec)
    class_names;
  List.rev !scenarios

(* Both instruments are only recorded with a [worker] label, so fix
   the histogram shape without declaring unlabelled zero series. *)
let () =
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:2_000_000.0 ~bins:80
    "cac.sweep.task_us";
  Obs.Registry.declare_counter "cac.sweep.task_errors"

let evaluate scenario =
  (* Everything domain-local: fresh class (private variance-growth
     table), fresh engine (private cache). *)
  let cls =
    match Source_class.fresh scenario.class_name with
    | Some cls -> cls
    | None ->
        invalid_arg
          (Printf.sprintf "Sweep: unknown class %S" scenario.class_name)
  in
  let make_engine () =
    let engine = Engine.create ~clock:(fun () -> 0.0) () in
    let _ =
      Engine.add_link_msec engine ~id:"link" ~capacity:scenario.capacity
        ~buffer_msec:scenario.buffer_msec ~target_clr:scenario.target_clr
    in
    (engine, "link")
  in
  let engine, link = make_engine () in
  let n_max = Engine.fill engine ~link ~cls in
  let utilization =
    float_of_int n_max *. Source_class.mean cls /. scenario.capacity
  in
  let blocking, cache_hit_rate =
    if scenario.requests <= 0 || n_max = 0 then (None, None)
    else begin
      (* Offer 10% more load than the fill boundary, so the replay
         meets blocking. *)
      let mean_holding = 60.0 in
      let offered = 1.1 *. float_of_int n_max in
      let spec =
        Workload.spec ~mean_holding
          ~arrival_rate:(offered /. mean_holding)
          ~requests:scenario.requests ~mix:[ (cls, 1.0) ] ()
      in
      let engine, link = make_engine () in
      let result =
        Workload.run engine ~link spec
          (Numerics.Rng.create ~seed:scenario.seed)
      in
      (Some result.Workload.steady_blocking,
       Some result.Workload.steady_cache_hit_rate)
    end
  in
  {
    scenario;
    n_max;
    eff_bw =
      (if n_max = 0 then infinity
       else scenario.capacity /. float_of_int n_max);
    utilization;
    blocking;
    cache_hit_rate;
  }

(* [evaluate] plus per-task telemetry: a [cac.sweep.task] span (which
   inherits the submitting domain's trace id — see [run]) and a
   [cac.sweep.task_us] observation, whose count is the task count,
   labelled by the worker slot (label sets are fixed per worker, so sequential and
   parallel runs export the same instrument names; only the
   per-worker split differs). *)
let evaluate_instrumented ~worker scenario =
  Obs.Span.with_ ~name:"cac.sweep.task" @@ fun () ->
  let labels = Obs.Labels.make [ ("worker", string_of_int worker) ] in
  let t0 = Obs.Clock.monotonic_ns () in
  let row = evaluate scenario in
  Obs.Registry.observe ~labels "cac.sweep.task_us"
    (Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0));
  row

(* One task, crash-proof: the fault stream is re-armed from the
   scenario seed (so faults are deterministic whatever domain claims
   the task), the [cac.sweep.task] injection point may kill it, and
   any exception — injected or organic — is caught and the scenario
   returned as a [Failed] outcome instead of crashing the worker
   domain. *)
let evaluate_protected ~worker scenario =
  Resilience.Fault.reseed scenario.seed;
  match
    Resilience.Fault.inject "cac.sweep.task";
    evaluate_instrumented ~worker scenario
  with
  | row -> Row row
  | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
  | exception exn ->
      Obs.Registry.incr "cac.sweep.task_errors";
      Failed { scenario; error = Printexc.to_string exn }

let run ?domains scenarios =
  Obs.Span.with_ ~name:"cac.sweep.run" @@ fun () ->
  let scenarios = Array.of_list scenarios in
  let n = Array.length scenarios in
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Sweep.run: domains < 1";
        Stdlib.min d (Stdlib.max 1 n)
    | None -> Stdlib.min (Domain.recommended_domain_count ()) (Stdlib.max 1 n)
  in
  let rows = Array.make n None in
  (* Trace contexts are per-domain, so a freshly-spawned worker would
     otherwise start traceless and its task spans could not be joined
     to the caller's request.  Capture the submitting domain's
     context once and restore it inside every worker. *)
  let trace = Obs.Trace.current () in
  let next = Atomic.make 0 in
  let worker slot () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        rows.(i) <- Some (evaluate_protected ~worker:slot scenarios.(i));
        loop ()
      end
    in
    match trace with Some t -> Obs.Trace.with_context t loop | None -> loop ()
  in
  (* Slot 0 is the calling domain: one worker spawns nothing. *)
  let spawned =
    List.init (domains - 1) (fun slot -> Domain.spawn (worker (slot + 1)))
  in
  worker 0 ();
  List.iter Domain.join spawned;
  (* [evaluate_protected] lets only [Out_of_memory] and [Stack_overflow]
     escape, and [Domain.join] re-raises them, so every slot is filled. *)
  Array.map Option.get rows

let rows outcomes =
  Array.to_list outcomes
  |> List.filter_map (function Row r -> Some r | Failed _ -> None)
  |> Array.of_list

let failures outcomes =
  Array.to_list outcomes
  |> List.filter_map (function Failed f -> Some f | Row _ -> None)

let print_table outcomes =
  Obs.Sink.printf "%-8s %10s %8s %8s %6s %8s %9s %8s\n" "class" "buf_msec"
    "clr" "n_max" "util" "eff_bw" "blocking" "hit%";
  Array.iter
    (fun outcome ->
      match outcome with
      | Failed f ->
          let s = f.scenario in
          Obs.Sink.printf "%-8s %10g %8.0e %s\n" s.class_name s.buffer_msec
            s.target_clr
            ("ERROR: " ^ f.error)
      | Row row ->
          let s = row.scenario in
          Obs.Sink.printf "%-8s %10g %8.0e %8d %5.1f%% %8s %9s %8s\n"
            s.class_name s.buffer_msec s.target_clr row.n_max
            (100.0 *. row.utilization)
            (* n_max = 0 makes eff_bw meaningless (capacity / 0): render
               a dash, not "inf". *)
            (if row.n_max = 0 then "-" else Printf.sprintf "%.1f" row.eff_bw)
            (match row.blocking with
            | Some b -> Printf.sprintf "%.4f" b
            | None -> "-")
            (match row.cache_hit_rate with
            | Some h -> Printf.sprintf "%.1f" (100.0 *. h)
            | None -> "-"))
    outcomes
