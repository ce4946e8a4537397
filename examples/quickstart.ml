(* Quickstart: build an LRD video source, ask the two questions the
   library answers — "how many frame correlations matter?" (CTS) and
   "what loss rate does the multiplexer see?" (Bahadur-Rao + simulation).

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A VBR video source: the paper's Z^0.9 model - Gaussian frames
     (mean 500 cells, variance 5000, 25 frames/s), geometric
     short-term correlations, Hurst parameter 0.9. *)
  let source = (Traffic.Models.z ~a:0.9).Traffic.Models.process in
  Printf.printf "Source: %s\n" source.Traffic.Process.name;
  Printf.printf "  mean %.0f cells/frame, variance %.0f, H = %.2f\n\n"
    source.Traffic.Process.mean source.Traffic.Process.variance
    (Option.value ~default:0.5 source.Traffic.Process.hurst);

  (* 2. Multiplexer: 30 sources, 538 cells/frame each (93% load). *)
  let n = 30 and c = 538.0 in
  let ts = Traffic.Models.ts in
  let vg =
    Core.Variance_growth.create ~acf:source.Traffic.Process.acf
      ~variance:source.Traffic.Process.variance
      ~tail:source.Traffic.Process.tail
  in

  (* 3. Critical Time Scale: how many lags of the ACF actually matter? *)
  Printf.printf "%-14s %-8s %-14s\n" "buffer (msec)" "m*_b" "log10 BOP (B-R)";
  List.iter
    (fun msec ->
      let total_service = float_of_int n *. c in
      let b =
        Queueing.Units.buffer_cells_of_msec ~msec
          ~service_cells_per_frame:total_service ~ts
        /. float_of_int n
      in
      let result =
        Core.Bahadur_rao.evaluate vg ~mu:source.Traffic.Process.mean ~c ~b ~n
      in
      Printf.printf "%-14g %-8d %-14.2f\n" msec
        result.Core.Bahadur_rao.cts.Core.Cts.m_star
        result.Core.Bahadur_rao.log10_bop)
    [ 0.0; 5.0; 10.0; 20.0; 30.0 ];
  Printf.printf
    "\nEven with H = 0.9, a 30 msec buffer is influenced by only the first\n\
     few dozen frame correlations - the LRD tail beyond that is invisible\n\
     to the loss rate.  That is the paper's Critical Time Scale result.\n\n";

  (* 4. Simulate the finite-buffer multiplexer to check the analytics. *)
  let scenario = Queueing.Scenario.make ~model:source ~n ~c ~ts in
  let buffers_msec = [| 0.0; 5.0; 10.0 |] in
  let intervals =
    Queueing.Scenario.clr_curve scenario ~buffers_msec ~frames:20_000 ~reps:3
      ~seed:7
  in
  Printf.printf "Simulated CLR (3 x 20k frames):\n";
  Array.iteri
    (fun i ci ->
      Printf.printf "  %5.1f msec: %.2e (+/- %.1e)\n" buffers_msec.(i)
        ci.Stats.Ci.point ci.Stats.Ci.half_width)
    intervals
