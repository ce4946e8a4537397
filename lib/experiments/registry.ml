type entry = {
  id : string;
  title : string;
  simulated : bool;
  run : unit -> unit;
}

let () =
  Obs.Registry.declare_counter "experiments.runs";
  Obs.Registry.declare_counter "experiments.failures"

(* Every experiment prints its banner to the human sink, then runs
   inside a span named [experiment.<id>], so a trace sink shows
   per-experiment wall time. *)
let run_entry e =
  Common.printf "\n######## %s: %s ########\n%!" e.id e.title;
  Obs.Span.with_ ~name:("experiment." ^ e.id) (fun () ->
      Obs.Registry.incr "experiments.runs";
      match e.run () with
      | () -> ()
      | exception exn ->
          Obs.Registry.incr "experiments.failures";
          raise exn)

let all =
  [
    {
      id = "table1";
      title = "Model parameters of V^v, Z^a, S, L (derived)";
      simulated = false;
      run = Exp_table1.run;
    };
    {
      id = "fig1";
      title = "ACF shaping by a and v (schematic)";
      simulated = false;
      run = Exp_fig1.run;
    };
    {
      id = "fig2";
      title = "Sample paths: Z^0.7 vs matched DAR(1), N=10";
      simulated = true;
      run = Exp_fig2.run;
    };
    {
      id = "fig3";
      title = "Analytic ACFs of V^v, Z^a, DAR(p), L";
      simulated = false;
      run = Exp_fig3.run;
    };
    {
      id = "fig4";
      title = "Critical time scale vs buffer (N=100, c=526)";
      simulated = false;
      run = Exp_fig4.run;
    };
    {
      id = "fig5";
      title = "B-R BOP: V^v and Z^a (N=30, c=538)";
      simulated = false;
      run = Exp_fig5.run;
    };
    {
      id = "fig6";
      title = "B-R BOP: Z^a vs DAR(p) vs L, practical buffers";
      simulated = false;
      run = Exp_fig6.run;
    };
    {
      id = "fig7";
      title = "B-R BOP over wide buffer range (crossover)";
      simulated = false;
      run = Exp_fig7.run;
    };
    {
      id = "fig8";
      title = "Simulated CLR: V^v and Z^a";
      simulated = true;
      run = Exp_fig8.run;
    };
    {
      id = "fig9";
      title = "Simulated CLR: Z^a vs DAR(p) vs L";
      simulated = true;
      run = Exp_fig9.run;
    };
    {
      id = "fig10";
      title = "B-R vs Large-N vs simulation (DAR(1) ~ Z^0.975)";
      simulated = true;
      run = Exp_fig10.run;
    };
    {
      id = "ablations";
      title = "Weibull closed form, CTS slope, fluid vs cell, marginal";
      simulated = true;
      run = Exp_ablations.run;
    };
    {
      id = "mpeg";
      title = "CTS of an MPEG GOP source (paper sec. 6.2 future work)";
      simulated = false;
      run = Exp_mpeg.run;
    };
    {
      id = "marginals";
      title = "Frame-size marginal sensitivity (paper sec. 6.1)";
      simulated = true;
      run = Exp_marginals.run;
    };
    {
      id = "spectrum";
      title = "PSD and buffer-induced cutoff frequency (paper sec. 6.2)";
      simulated = false;
      run = Exp_spectrum.run;
    };
    {
      id = "admission";
      title = "Admissible connections per model (paper sec. 5.4 remark)";
      simulated = false;
      run = Exp_admission.run;
    };
    {
      id = "cac";
      title = "Online CAC engine: admissible region, Markov vs LRD";
      simulated = true;
      run = Exp_cac.run;
    };
    {
      id = "shaping";
      title = "Shaping window vs loss at fixed delay budget (extension)";
      simulated = false;
      run = Exp_shaping.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_all ?(include_simulated = true) () =
  List.iter
    (fun e -> if include_simulated || not e.simulated then run_entry e)
    all
