(* Heterogeneous multiplexing: a link carrying a mix of source types.

   The paper studies homogeneous multiplexers (N identical sources),
   but the machinery extends: the aggregate of independent Gaussian
   sources is Gaussian with summed means/variances and a
   variance-weighted ACF (Process.superpose), so the rate function of
   the aggregate (evaluated with N = 1 on link totals) gives the
   Large-N-style overflow estimate for any mix.

   Here: 20 videoconference-like LRD sources (Z^0.9) share a link with
   10 MPEG GOP sources.  We compare the analytic estimate with
   simulation, and show the CTS of the mix.

   Run with: dune exec examples/mixed_traffic.exe *)

let () =
  let z = (Traffic.Models.z ~a:0.9).Traffic.Models.process in
  let mpeg = Traffic.Mpeg.process (Traffic.Mpeg.create ~mean:500.0 ()) in
  let mix =
    Traffic.Process.superpose ~name:"20xZ^0.9 + 10xMPEG"
      [ Traffic.Process.replicate z 20; Traffic.Process.replicate mpeg 10 ]
  in
  Printf.printf "Aggregate: %s\n" mix.Traffic.Process.name;
  Printf.printf "  mean %.0f cells/frame, std %.0f, H = %s\n\n"
    mix.Traffic.Process.mean
    (sqrt mix.Traffic.Process.variance)
    (match mix.Traffic.Process.hurst with
    | Some h -> Printf.sprintf "%.2f" h
    | None -> "1/2");

  (* Link at ~93% utilisation, like the paper's scenarios. *)
  let capacity = mix.Traffic.Process.mean /. 0.93 in
  let vg =
    Core.Variance_growth.create ~acf:mix.Traffic.Process.acf
      ~variance:mix.Traffic.Process.variance
      ~tail:mix.Traffic.Process.tail
  in
  Printf.printf "Link capacity %.0f cells/frame (93%% load)\n\n" capacity;
  Printf.printf "%-14s %-8s %-18s %-14s\n" "buffer (msec)" "m*_b"
    "log10 P(W>B) est." "simulated";
  List.iter
    (fun msec ->
      let buffer_cells =
        Queueing.Units.buffer_cells_of_msec ~msec
          ~service_cells_per_frame:capacity ~ts:Traffic.Models.ts
      in
      let analysis =
        Core.Large_n.evaluate vg ~mu:mix.Traffic.Process.mean ~c:capacity
          ~b:buffer_cells ~n:1
      in
      (* Simulate the same finite-buffer multiplexer. *)
      let rng = Numerics.Rng.create ~seed:77 in
      let next_frame = mix.Traffic.Process.spawn rng in
      let r =
        Queueing.Fluid_mux.clr ~next_frame ~service:capacity
          ~buffer:buffer_cells ~frames:30_000 ()
      in
      Printf.printf "%-14g %-8d %-18.2f %-14s\n" msec
        analysis.Core.Large_n.cts.Core.Cts.m_star
        analysis.Core.Large_n.log10_bop
        (if r.Queueing.Fluid_mux.clr > 0.0 then
           Printf.sprintf "%.2f" (log10 r.Queueing.Fluid_mux.clr)
         else "< resolution"))
    [ 0.0; 2.0; 5.0; 10.0; 20.0 ];
  Printf.printf
    "\nThe mixed aggregate is handled by exactly the same CTS machinery:\n\
     superposition closes the model family (means and variances add, the\n\
     ACF mixes by variance weight), so engineering rules derived for the\n\
     homogeneous case carry over to real traffic mixes.\n"
