(* A miniature admission-control "server": the online CAC engine
   serving a day in the life of two ATM links.

   An OC-3-class link carries a heterogeneous mix of LRD video (Z^0.975)
   and its cheap DAR(3) Markov fit; a smaller access link carries pure
   DAR(1) traffic.  Poisson call attempts with exponential holding
   times stream through the engine, whose decision cache turns the
   steady-state Bahadur-Rao admission test into a hash lookup.

   Set CAC_FAULT_SPEC (e.g. "bahadur_rao.evaluate=raise:0.01") to run
   the same day under injected kernel faults and watch the engine
   degrade fail-closed instead of crashing; CAC_FAULT_SEED fixes the
   injection stream (default 7).

   Run with: dune exec examples/cac_server.exe *)

let () =
  (match Sys.getenv_opt "CAC_FAULT_SPEC" with
  | None -> ()
  | Some spec -> (
      let seed =
        Option.bind (Sys.getenv_opt "CAC_FAULT_SEED") int_of_string_opt
        |> Option.value ~default:7
      in
      match Resilience.Fault.parse spec with
      | Ok rules ->
          Resilience.Fault.configure ~seed rules;
          Printf.printf "fault injection armed: %s (seed %d)\n\n"
            (Resilience.Fault.to_string rules)
            seed
      | Error msg ->
          Printf.eprintf "bad CAC_FAULT_SPEC: %s\n%!" msg;
          exit 2));
  let engine = Cac.Engine.create ~cache_capacity:4096 () in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
       ~buffer_msec:20.0 ~target_clr:1e-6);
  ignore
    (Cac.Engine.add_link_msec engine ~id:"access" ~capacity:5380.0
       ~buffer_msec:10.0 ~target_clr:1e-6);

  let z = Cac.Source_class.of_name_exn "z0.975" in
  let dar3 = Cac.Source_class.of_name_exn "dar3" in
  let dar1 = Cac.Source_class.of_name_exn "dar1" in

  Printf.printf "links:\n";
  List.iter
    (fun link ->
      Printf.printf "  %-7s %.0f cells/frame, buffer %.0f cells (%.1f msec), CLR <= %g\n"
        (Cac.Link.id link) (Cac.Link.capacity link) (Cac.Link.buffer link)
        (Cac.Link.buffer_msec link) (Cac.Link.target_clr link))
    (Cac.Engine.links engine);

  (* Backbone: mixed LRD + Markov video calls, ~29 circuits' worth of
     offered load.  Access: light homogeneous load. *)
  let rng = Numerics.Rng.create ~seed:2024 in
  let backbone =
    Cac.Workload.spec ~mean_holding:90.0
      ~arrival_rate:(32.0 /. 90.0)
      ~requests:20_000
      ~mix:[ (z, 2.0); (dar3, 1.0) ]
      ()
  in
  let access =
    Cac.Workload.spec ~mean_holding:60.0
      ~arrival_rate:(9.0 /. 60.0)
      ~requests:5_000
      ~mix:[ (dar1, 1.0) ]
      ()
  in
  let report link spec (r : Cac.Workload.result) =
    Printf.printf
      "\n%s: %d attempts over %.0f simulated hours (%.1f Erlangs offered)\n"
      link r.offered (r.duration /. 3600.0)
      (Cac.Workload.offered_load spec);
    Printf.printf "  admitted %d, rejected %d -> blocking %.4f (steady %.4f)\n"
      r.admitted r.rejected r.blocking r.steady_blocking;
    Printf.printf "  occupancy: %.1f mean / %d peak connections\n"
      r.mean_occupancy r.peak_occupancy;
    Printf.printf "  decision cache: %.1f%% hits (%.1f%% steady-state)\n"
      (100.0 *. r.cache_hit_rate)
      (100.0 *. r.steady_cache_hit_rate);
    Printf.printf "  mean decision latency: %.2f us\n" r.mean_latency_us;
    if r.errors > 0 || r.degraded > 0 then
      Printf.printf
        "  resilience: %d engine errors (fail-closed), %d degraded peak-rate \
         decisions\n"
        r.errors r.degraded
  in
  report "oc3" backbone
    (Cac.Workload.run engine ~link:"oc3" backbone (Numerics.Rng.split rng));
  report "access" access
    (Cac.Workload.run engine ~link:"access" access (Numerics.Rng.split rng));

  print_newline ();
  Cac.Metrics.print ~label:"engine" (Cac.Engine.metrics engine);
  let stats = Cac.Engine.cache_stats engine in
  Printf.printf "engine: cache %d entries, %d hits / %d misses (%.1f%% hit rate)\n"
    stats.Cac.Decision_cache.entries stats.Cac.Decision_cache.hits
    stats.Cac.Decision_cache.misses
    (100.0 *. Cac.Decision_cache.hit_rate stats);
  if Resilience.Fault.active () then begin
    Printf.printf
      "guard:  %d faults injected, %d peak-rate fallbacks, %d breaker trips\n"
      (Resilience.Fault.injected_total ())
      (Resilience.Guard.fallbacks ())
      (Obs.Registry.counter_value "cac.guard.breaker_trips");
    List.iter
      (fun (b : Cac.Engine.breaker_snapshot) ->
        Printf.printf "guard:  breaker %s/%s: %s\n" b.Cac.Engine.b_link
          b.Cac.Engine.b_class b.Cac.Engine.b_state)
      (Cac.Engine.breakers engine)
  end
