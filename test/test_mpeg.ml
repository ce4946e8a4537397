open Helpers

let source = Traffic.Mpeg.create ~mean:500.0 ()

let test_pattern_normalised () =
  let p = Traffic.Mpeg.default_gop in
  check_int "GOP length 12" 12 (Array.length p);
  check_close ~tol:1e-12 "pattern mean 1" 1.0
    (Numerics.Float_array.mean p);
  check_true "I frame largest"
    (Array.for_all (fun g -> g <= p.(0)) p)

let test_moments () =
  check_close "mean" 500.0 (Traffic.Mpeg.frame_mean source);
  check_true "variance positive" (Traffic.Mpeg.frame_variance source > 0.0);
  (* GOP structure adds variance beyond the activity process alone. *)
  let activity_var = (0.12 *. 500.0) ** 2.0 in
  check_true "pattern inflates variance"
    (Traffic.Mpeg.frame_variance source > activity_var)

let test_acf_gop_ripples () =
  let r = Traffic.Mpeg.acf source in
  check_close "r(0)" 1.0 (r 0);
  (* Full-period lags re-align the pattern: r(12) must exceed the
     neighbouring off-period lags. *)
  check_true "ripple peak at the GOP period" (r 12 > r 11 && r 12 > r 13);
  check_true "second ripple" (r 24 > r 23 && r 24 > r 25);
  (* Decay across periods from the activity process. *)
  check_true "ripples decay" (r 12 > r 24 && r 24 > r 36)

let test_acf_matches_simulation () =
  let process = Traffic.Mpeg.process source in
  let x = Traffic.Process.generate process (rng ~seed:201 ()) 200_000 in
  let sample = Stats.Acf.autocorrelation_fft x ~max_lag:13 in
  List.iter
    (fun k ->
      check_close ~tol:0.03
        (Printf.sprintf "simulated acf lag %d" k)
        (Traffic.Mpeg.acf source k)
        sample.(k))
    [ 1; 2; 3; 6; 12; 13 ]

let test_simulated_moments () =
  let process = Traffic.Mpeg.process source in
  let x = Traffic.Process.generate process (rng ~seed:203 ()) 100_000 in
  let s = Stats.Descriptive.summarize x in
  check_close_rel ~tol:0.03 "simulated mean" 500.0 s.Stats.Descriptive.mean;
  check_close_rel ~tol:0.1 "simulated variance"
    (Traffic.Mpeg.frame_variance source)
    s.Stats.Descriptive.variance

let test_phase_randomisation () =
  (* Different spawns start at random GOP phases: the first frames of
     many generators must not all be I frames. *)
  let process = Traffic.Mpeg.process source in
  let master = rng ~seed:205 () in
  let firsts =
    Array.init 64 (fun i ->
        let g = process.Traffic.Process.spawn (Numerics.Rng.jump_to_substream master i) in
        g ())
  in
  let spread =
    Numerics.Float_array.max firsts /. Numerics.Float_array.min firsts
  in
  check_true "first-frame sizes span the GOP pattern" (spread > 2.0)

let test_cts_analysis_works () =
  let process = Traffic.Mpeg.process source in
  let vg =
    Core.Variance_growth.create ~acf:process.Traffic.Process.acf
      ~variance:process.Traffic.Process.variance
      ~tail:process.Traffic.Process.tail
  in
  let a = Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b:134.5 in
  check_true "finite CTS" (a.Core.Cts.m_star >= 1);
  check_true "positive rate" (a.Core.Cts.rate > 0.0)

let test_invalid () =
  Alcotest.check_raises "bad mean"
    (Invalid_argument "Mpeg: mean must be positive") (fun () ->
      ignore (Traffic.Mpeg.create ~mean:0.0 ()))

let suite =
  [
    case "pattern normalised" test_pattern_normalised;
    case "moments" test_moments;
    case "GOP ripples in the ACF" test_acf_gop_ripples;
    slow_case "acf matches simulation" test_acf_matches_simulation;
    slow_case "simulated moments" test_simulated_moments;
    case "phase randomisation" test_phase_randomisation;
    case "CTS analysis applies" test_cts_analysis_works;
    case "invalid arguments" test_invalid;
  ]
