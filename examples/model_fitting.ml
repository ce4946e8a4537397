(* Model fitting workflow: what a traffic engineer does with a measured
   VBR trace.

   The paper uses Z^a as a stand-in for a real LRD videoconference
   trace.  We do the same end-to-end: generate a "measured" trace from
   Z^0.975, estimate its marginal and autocorrelations, fit DAR(p)
   models to the estimates (not to the analytic truth), and compare the
   simulated loss of trace-driven and model-driven multiplexers.

   Run with: dune exec examples/model_fitting.exe *)

let frames = 120_000
let n_sources = 30

(* The link is provisioned at 95% utilisation *of the measured trace*:
   an LRD trace's sample mean wanders (that is the point of LRD), so
   dimensioning against the nominal mean would leave the comparison at
   an uncontrolled operating point. *)
let service_for ~measured_mean = float_of_int n_sources *. measured_mean /. 0.95

let simulate_clr ~service ~next_frame ~buffer_msec =
  let buffer =
    Queueing.Units.buffer_cells_of_msec ~msec:buffer_msec
      ~service_cells_per_frame:service ~ts:Traffic.Models.ts
  in
  (Queueing.Fluid_mux.clr ~next_frame ~service ~buffer ~frames ())
    .Queueing.Fluid_mux.clr

let () =
  let rng = Numerics.Rng.create ~seed:515 in
  (* 1. "Measure" a trace (one source's frame sizes). *)
  let truth = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let trace = Traffic.Process.generate truth (Numerics.Rng.split rng) frames in
  let mean = Numerics.Float_array.mean trace in
  let variance = Numerics.Float_array.variance trace in
  let service = service_for ~measured_mean:mean in
  Printf.printf "Measured trace: %d frames, mean %.1f, variance %.0f\n" frames
    mean variance;

  (* 2. Estimate the ACF and fit DAR(p) to the estimates. *)
  let sample_acf = Stats.Acf.autocorrelation_fft trace ~max_lag:16 in
  Printf.printf "Sample ACF (lags 1-5): %s\n\n"
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%.3f" sample_acf.(k))
          [ 1; 2; 3; 4; 5 ]));
  let marginal = Traffic.Dar.gaussian_marginal ~mean ~variance in
  let fitted p =
    Traffic.Dar.fit_process marginal
      ~target_acf:(fun k -> sample_acf.(k))
      ~p
  in

  (* 3. Compare multiplexer loss: trace replayed vs fitted models.
     The trace-driven mux replays shifted copies of the measured trace,
     a standard trace-driven-simulation device. *)
  let trace_driven () =
    let offsets =
      Array.init n_sources (fun i -> i * (frames / n_sources))
    in
    let t = ref 0 in
    fun () ->
      let total = ref 0.0 in
      Array.iter
        (fun off ->
          total :=
            !total +. trace.((off + !t) mod frames))
        offsets;
      incr t;
      !total
  in
  let model_driven process =
    (Traffic.Process.replicate process n_sources).Traffic.Process.spawn
      (Numerics.Rng.split rng)
  in
  Printf.printf "%-14s" "buffer (msec)";
  List.iter (fun b -> Printf.printf " %10g" b) [ 2.0; 5.0; 10.0 ];
  print_newline ();
  let row name next_frame =
    Printf.printf "%-14s" name;
    List.iter
      (fun buffer_msec ->
        Printf.printf " %10.2e" (simulate_clr ~service ~next_frame ~buffer_msec))
      [ 2.0; 5.0; 10.0 ];
    print_newline ()
  in
  row "trace replay" (trace_driven ());
  List.iter
    (fun p -> row (Printf.sprintf "DAR(%d) fit" p) (model_driven (fitted p)))
    [ 1; 2; 3 ];
  Printf.printf
    "\nThe DAR fits - estimated purely from the measured trace - reproduce\n\
     the loss scale of the trace-driven multiplexer over practical buffers.\n\
     (Replaying shifted copies of one realisation understates the\n\
     variability of truly independent sources, so the replay row sits a\n\
     little low; the fits bracket it from above, the safe side for CAC.)\n"
