open Helpers

let series_values (s : Experiments.Common.series) = Array.map snd s.points

let test_registry_unique_ids () =
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  check_int "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  check_true "find works" (Experiments.Registry.find "fig4" <> None);
  check_true "find rejects junk" (Experiments.Registry.find "nope" = None)

let test_table1_rows () =
  let rows = Experiments.Exp_table1.rows () in
  check_int "5 model rows" 5 (List.length rows);
  let fits = Experiments.Exp_table1.dar_fits () in
  check_int "6 fits" 6 (List.length fits)

let test_fig3_alignment () =
  let fig = Experiments.Exp_fig3.figure_a () in
  check_int "three series" 3 (List.length fig.Experiments.Common.series);
  let lag1 =
    List.map (fun s -> snd s.Experiments.Common.points.(0)) fig.Experiments.Common.series
  in
  match lag1 with
  | [ a; b; c ] ->
      check_close ~tol:1e-9 "V lag-1 equal (a=b)" a b;
      check_close ~tol:1e-9 "V lag-1 equal (b=c)" b c
  | _ -> Alcotest.fail "expected three series"

(* The y value of series [label], in whichever of [figs] holds it, at
   buffer [msec]. *)
let value_at (figs : Experiments.Common.figure list) label msec =
  let same_label s = String.equal s.Experiments.Common.label label in
  match
    List.find_map (fun (f : Experiments.Common.figure) -> List.find_opt same_label f.series) figs
  with
  | None -> Alcotest.failf "no series %s" label
  | Some s -> (
      match Array.find_opt (fun (x, _) -> Float.equal x msec) s.points with
      | Some (_, y) -> y
      | None -> Alcotest.failf "%s: no point at %g msec" label msec)

(* Pinned values, so an optimisation of the kernel cannot move a figure
   while keeping its shape: (series, [(buffer msec, value)]). *)
let fig4_m_star =
  [
    ("V^0.67", [ (0.5, 3); (2.0, 6); (30.0, 106) ]);
    ("V^1", [ (0.5, 3); (2.0, 7); (30.0, 148) ]);
    ("V^1.5", [ (0.5, 3); (2.0, 8); (30.0, 186) ]);
    ("Z^0.7", [ (0.5, 2); (2.0, 5); (30.0, 80) ]);
    ("Z^0.9", [ (0.5, 3); (2.0, 8); (30.0, 53) ]);
    ("Z^0.975", [ (0.5, 4); (2.0, 13); (30.0, 71) ]);
    ("Z^0.99", [ (0.5, 5); (2.0, 17); (30.0, 102) ]);
  ]

let fig5_log10_bop =
  [
    ("V^0.67", [ (2.0, -4.272154109800); (30.0, -9.271287429851) ]);
    ("V^1", [ (2.0, -4.231581817128); (30.0, -8.168967871221) ]);
    ("V^1.5", [ (2.0, -4.177182219802); (30.0, -7.232322660372) ]);
    ("Z^0.7", [ (2.0, -4.782109957877); (30.0, -11.864863073868) ]);
    ("Z^0.9", [ (2.0, -4.183746232059); (30.0, -8.726963443157) ]);
    ("Z^0.975", [ (2.0, -3.837676315013); (30.0, -6.099360103655) ]);
    ("Z^0.99", [ (2.0, -3.733349815399); (30.0, -5.223746062554) ]);
  ]

let test_fig4_monotone_cts () =
  let figs = [ Experiments.Exp_fig4.figure_a (); Experiments.Exp_fig4.figure_b () ] in
  List.iter
    (fun fig ->
      List.iter
        (fun s ->
          let v = series_values s in
          for i = 1 to Array.length v - 1 do
            check_true
              (Printf.sprintf "%s CTS non-decreasing" s.Experiments.Common.label)
              (v.(i) >= v.(i - 1))
          done)
        fig.Experiments.Common.series)
    figs;
  List.iter
    (fun (label, points) ->
      List.iter
        (fun (msec, m_star) ->
          check_true
            (Printf.sprintf "fig4 %s m* at %g msec = %d" label msec m_star)
            (Float.equal (float_of_int m_star) (value_at figs label msec)))
        points)
    fig4_m_star

let test_fig4_short_term_dominates () =
  (* The paper's headline for Fig 4: Z^a curves split wide; V^v curves
     stay close at small buffers. *)
  let spread fig i =
    let values =
      List.map (fun s -> (series_values s).(i)) fig.Experiments.Common.series
    in
    List.fold_left Stdlib.max neg_infinity values
    -. List.fold_left Stdlib.min infinity values
  in
  let va = Experiments.Exp_fig4.figure_a () in
  let zb = Experiments.Exp_fig4.figure_b () in
  (* index 3 is B = 2 msec on the fig4 grid *)
  check_true "V^v spread small at 2 msec" (spread va 3 <= 3.0);
  check_true "Z^a spread large at 2 msec (>= 10 lags)" (spread zb 3 >= 10.0)

let test_fig5_bop_decreasing () =
  let figs = [ Experiments.Exp_fig5.figure_a (); Experiments.Exp_fig5.figure_b () ] in
  List.iter
    (fun fig ->
      List.iter
        (fun s ->
          let v = series_values s in
          for i = 1 to Array.length v - 1 do
            check_true "BOP decreasing in buffer" (v.(i) < v.(i - 1))
          done)
        fig.Experiments.Common.series)
    figs;
  List.iter
    (fun (label, points) ->
      List.iter
        (fun (msec, log10_bop) ->
          check_close ~tol:1e-9
            (Printf.sprintf "fig5 %s log10 BOP at %g msec" label msec)
            log10_bop (value_at figs label msec))
        points)
    fig5_log10_bop

let test_fig5_z_ordering () =
  (* Stronger short-term correlations -> slower BOP decay: at every
     buffer, Z^0.99 sits above Z^0.7. *)
  let fig = Experiments.Exp_fig5.figure_b () in
  match fig.Experiments.Common.series with
  | z07 :: _ :: _ :: z99 :: _ ->
      let v07 = series_values z07 and v99 = series_values z99 in
      for i = 1 to Array.length v07 - 1 do
        check_true "Z^0.99 above Z^0.7" (v99.(i) > v07.(i))
      done
  | _ -> Alcotest.fail "expected four series"

let test_fig6_dar_converges_to_z () =
  (* |DAR(p) - Z| at 10 msec shrinks as p grows, and DAR(1) beats L. *)
  let fig = Experiments.Exp_fig6.figure_a () in
  let by_label label =
    List.find
      (fun s -> s.Experiments.Common.label = label)
      fig.Experiments.Common.series
  in
  let idx = 8 (* 10 msec on the practical grid *) in
  let z = (series_values (by_label "Z^0.975")).(idx) in
  let err label = Float.abs ((series_values (by_label label)).(idx) -. z) in
  check_true "DAR(2) closer than DAR(1)" (err "DAR(2)" <= err "DAR(1)");
  check_true "DAR(3) closer than DAR(2)" (err "DAR(3)" <= err "DAR(2)");
  check_true "DAR(1) beats L over practical buffers" (err "DAR(1)" < err "L")

let test_fig7_crossover () =
  (* The second claim's origin: L eventually out-predicts the Markov
     fits, but only at large buffers, and matching more short-term lags
     pushes the crossover out further. *)
  let crossover p =
    match Experiments.Exp_fig7.crossover_msec ~a:0.975 ~p with
    | None -> infinity
    | Some b -> b
  in
  let c1 = crossover 1 and c3 = crossover 3 in
  check_true
    (Printf.sprintf "DAR(1) crossover at %.0f msec is not at small buffers" c1)
    (c1 >= 10.0);
  check_true
    (Printf.sprintf "DAR(3) crossover (%.0f) beyond DAR(1)'s (%.0f)" c3 c1)
    (c3 >= c1);
  check_true "DAR(3) holds through the practical range" (c3 >= 20.0)

let test_admission_gap_small () =
  (* Section 5.4: BOP differences translate to about one connection. *)
  check_true "DAR admission within 2 connections of Z"
    (Experiments.Exp_admission.max_count_gap ~target_clr:1e-6 <= 2)

let test_spectrum_ignored_power () =
  (* At 10 msec the loss estimate ignores a large low-frequency share
     of Z^0.975's variance - the LRD part. *)
  let ignored =
    Experiments.Exp_spectrum.lrd_power_ignored ~a:0.975 ~buffer_msec:10.0
  in
  check_true
    (Printf.sprintf "ignored power %.2f in (0.3, 1)" ignored)
    (ignored > 0.3 && ignored < 1.0)

let test_emit_csv () =
  with_tmp_results (fun dir ->
      let fig = Experiments.Exp_fig1.figure_z () in
      Experiments.Common.save_figure_csv fig;
      let path = Filename.concat dir "fig1_z.csv" in
      check_true "csv written" (Sys.file_exists path);
      let ic = open_in path in
      let lines = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> ());
      close_in ic;
      (* header(3) + 2 series x 30 lags *)
      check_int "csv rows" 63 !lines)

let test_scale_env () =
  Unix.putenv "CTS_FRAMES" "123";
  check_int "frames honours env" 123 (Experiments.Common.frames ());
  Unix.putenv "CTS_FRAMES" "bogus";
  check_int "invalid env falls back" 20_000 (Experiments.Common.frames ());
  Unix.putenv "CTS_FRAMES" "";
  check_int "empty env falls back" 20_000 (Experiments.Common.frames ())

(* A Student-t interval needs two replications, so CTS_REPS=1 is as
   invalid as CTS_REPS=0: it falls back to the default instead of
   failing after the simulation. *)
let test_one_rep_env_ignored () =
  Unix.putenv "CTS_FRAMES" "200";
  Unix.putenv "CTS_REPS" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CTS_FRAMES" "";
      Unix.putenv "CTS_REPS" "")
    (fun () ->
      let s =
        Experiments.Common.clr_sim_series ~label:"one rep"
          (Traffic.Models.s ~a:0.975 ~p:1)
          ~n:30 ~c:538.0 ~buffers_msec:[| 0.0 |]
      in
      check_true "CI attached" (s.Experiments.Common.ci_half_width <> None))

(* What [f] writes to the stderr file descriptor. *)
let captured_stderr f =
  let path = Filename.temp_file "cts_stderr" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

(* Every simulated series reads the knobs again; a bad value warns
   once per process, not once per series. *)
let test_bad_env_warns_once () =
  Unix.putenv "CTS_FRAMES" "0";
  let text =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "CTS_FRAMES" "")
      (fun () ->
        captured_stderr (fun () ->
            check_int "first read falls back" 20_000 (Experiments.Common.frames ());
            check_int "second read falls back" 20_000
              (Experiments.Common.frames ())))
  in
  check_int "one warning" 1
    (List.length
       (List.filter
          (fun line -> contains_substring line "ignoring invalid CTS_FRAMES")
          (String.split_on_char '\n' text)))

let test_buffer_cells_per_source () =
  (* 10 msec at N = 30, c = 538: total 4035 cells, 134.5 per source. *)
  check_close_rel ~tol:1e-12 "per-source buffer" 134.5
    (Experiments.Common.buffer_cells_per_source ~msec:10.0 ~n:30 ~c:538.0)

let test_sim_smoke () =
  (* A tiny end-to-end simulated series: finite values at zero buffer,
     decreasing CLR, CIs present. *)
  Unix.putenv "CTS_FRAMES" "4000";
  Unix.putenv "CTS_REPS" "2";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CTS_FRAMES" "";
      Unix.putenv "CTS_REPS" "")
    (fun () ->
      let s =
        Experiments.Common.clr_sim_series ~label:"smoke"
          (Traffic.Models.s ~a:0.975 ~p:1)
          ~n:30 ~c:538.0 ~buffers_msec:[| 0.0; 1.0 |]
      in
      let v = series_values s in
      check_true "zero-buffer CLR observed" (v.(0) > neg_infinity);
      check_true "CLR decreases with buffer" (v.(1) <= v.(0));
      check_true "CI attached" (s.Experiments.Common.ci_half_width <> None))

let test_analytic_experiments_smoke () =
  (* Every non-simulated experiment must run end to end (stdout output
     is fine in test logs; CSVs go to a temp dir). *)
  with_tmp_results (fun _ ->
      List.iter
        (fun e ->
          if not e.Experiments.Registry.simulated then
            e.Experiments.Registry.run ())
        Experiments.Registry.all)

let test_mpeg_experiment_figures () =
  let acf_fig = Experiments.Exp_mpeg.figure_acf () in
  check_int "two ACF series" 2 (List.length acf_fig.Experiments.Common.series);
  let bop_fig = Experiments.Exp_mpeg.figure_bop () in
  check_int "MPEG BOP: source + scene model + smoothed source" 3
    (List.length bop_fig.Experiments.Common.series);
  (* DAR cannot represent the negative intra-GOP correlations - that is
     a structural property worth pinning down. *)
  let mpeg_acf =
    (Traffic.Mpeg.process (Traffic.Mpeg.create ~mean:500.0 ()))
      .Traffic.Process.acf
  in
  check_true "MPEG has negative short-lag correlation" (mpeg_acf 1 < 0.0);
  check_true "DAR fit rejects it"
    (match Traffic.Dar.fit ~target_acf:mpeg_acf ~p:1 with
    | (_ : Traffic.Dar.params) -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    case "registry ids" test_registry_unique_ids;
    slow_case "analytic experiments smoke" test_analytic_experiments_smoke;
    case "mpeg experiment figures" test_mpeg_experiment_figures;
    case "table1 shape" test_table1_rows;
    case "fig3a: V lag-1 alignment" test_fig3_alignment;
    case "fig4: CTS monotone" test_fig4_monotone_cts;
    case "fig4: short-term correlations dominate CTS" test_fig4_short_term_dominates;
    case "fig5: BOP decreasing" test_fig5_bop_decreasing;
    case "fig5: Z ordering by short-term strength" test_fig5_z_ordering;
    case "fig6: DAR(p) converges, beats L" test_fig6_dar_converges_to_z;
    case "fig7: crossover beyond practical range" test_fig7_crossover;
    case "admission gap small" test_admission_gap_small;
    case "spectrum ignored power" test_spectrum_ignored_power;
    case "csv export" test_emit_csv;
    case "scale env vars" test_scale_env;
    case "CTS_REPS=1 is invalid, like 0" test_one_rep_env_ignored;
    case "a bad CTS_* value warns once" test_bad_env_warns_once;
    case "buffer conversion" test_buffer_cells_per_source;
    slow_case "simulated series smoke" test_sim_smoke;
  ]
