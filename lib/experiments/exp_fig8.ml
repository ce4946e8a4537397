(* A coarser buffer grid than the analytic figures: each point is paid
   for in simulation time.  The grid is dense at small buffers where
   laptop-scale runs still observe losses; the deep-tail points light up
   at frames and reps closer to the paper's 500k x 60. *)
let buffers_msec =
  [| 0.0; 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0; 8.0; 12.0; 20.0; 30.0 |]

let sim label process =
  Common.clr_sim_series ~label process ~n:Common.n_main ~c:Common.c_main
    ~buffers_msec

let figure_a () =
  {
    Common.id = "fig8a";
    title = "Simulated CLR: V^v (N=30, c=538)";
    xlabel = "buffer msec";
    ylabel = "log10 CLR";
    series =
      List.map
        (fun v ->
          sim (Printf.sprintf "V^%g" v) (Traffic.Models.v ~v).Traffic.Models.process)
        Traffic.Models.v_values;
  }

let figure_b () =
  {
    Common.id = "fig8b";
    title = "Simulated CLR: Z^a (N=30, c=538)";
    xlabel = "buffer msec";
    ylabel = "log10 CLR";
    series =
      List.map
        (fun a ->
          sim (Printf.sprintf "Z^%g" a) (Traffic.Models.z ~a).Traffic.Models.process)
        Traffic.Models.z_values;
  }

let run () =
  Ascii_plot.emit (figure_a ());
  Ascii_plot.emit (figure_b ())
