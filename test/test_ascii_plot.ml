open Helpers

let simple_series =
  [
    ("up", Array.init 10 (fun i -> (float_of_int i, float_of_int i)));
    ("down", Array.init 10 (fun i -> (float_of_int i, float_of_int (9 - i))));
  ]

let test_render_basics () =
  let out =
    Experiments.Ascii_plot.render ~series:simple_series ~xlabel:"x" ~ylabel:"y" ()
  in
  check_true "mentions ylabel" (String.length out > 0);
  check_true "legend has both series"
    (contains_substring out "a = up" && contains_substring out "b = down")

let test_marker_presence () =
  let out =
    Experiments.Ascii_plot.render ~series:simple_series ~xlabel:"x" ~ylabel:"y"
      ()
  in
  check_true "marker a drawn" (String.contains out 'a');
  check_true "marker b drawn" (String.contains out 'b')

let test_empty_and_nonfinite () =
  let out =
    Experiments.Ascii_plot.render
      ~series:[ ("nan", [| (1.0, nan); (2.0, neg_infinity) |]) ]
      ~xlabel:"x" ~ylabel:"y" ()
  in
  check_true "degenerate input handled" (String.length out > 0)

let test_logx () =
  let series =
    [ ("pow", Array.init 8 (fun i -> (10.0 ** float_of_int i, float_of_int i))) ]
  in
  let out =
    Experiments.Ascii_plot.render ~logx:true ~series ~xlabel:"x" ~ylabel:"y" ()
  in
  check_true "log axis noted" (contains_substring out "log axis")

let test_render_figure () =
  let fig = Experiments.Exp_fig1.figure_z () in
  let out = Experiments.Ascii_plot.render_figure fig in
  check_true "figure renders" (String.length out > 200)

let test_emit_goes_to_human_sink () =
  (* [--quiet] installs a Null human sink; the plot must go through the
     sink to be silenced with the table. *)
  let fig = Experiments.Exp_fig1.figure_z () in
  let path = Filename.temp_file "cts_plot" ".txt" in
  let oc = open_out path in
  let prev = Obs.Sink.human_sink () in
  Obs.Sink.set_human (Obs.Sink.Channel oc);
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.set_human prev;
      close_out_noerr oc;
      Sys.remove path)
  @@ fun () ->
  with_tmp_results (fun _ -> Experiments.Ascii_plot.emit fig);
  flush oc;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let plot = Experiments.Ascii_plot.render_figure fig in
  check_true "the plot lands in the human sink's file" (contains_substring text plot)

let suite =
  [
    case "render basics" test_render_basics;
    case "marker presence" test_marker_presence;
    case "non-finite input" test_empty_and_nonfinite;
    case "log x axis" test_logx;
    case "render a real figure" test_render_figure;
    case "emit writes the plot to the human sink" test_emit_goes_to_human_sink;
  ]
