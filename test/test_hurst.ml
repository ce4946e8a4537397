open Helpers

let fgn ?(seed = 51) ~h n =
  Traffic.Fgn.sample_davies_harte (rng ~seed ()) ~h ~n

let white ?(seed = 53) n =
  let a = rng ~seed () in
  Array.init n (fun _ -> Numerics.Dist.standard_gaussian a)

let test_rs_white () =
  let est = Stats.Hurst.rescaled_range (white 32768) in
  (* R/S is biased upward on short series; 0.5-0.65 is the accepted
     range for white noise at this length. *)
  check_true
    (Printf.sprintf "R/S on white noise: %.3f in [0.45, 0.68]" est.Stats.Hurst.h)
    (est.Stats.Hurst.h > 0.45 && est.Stats.Hurst.h < 0.68)

let test_rs_fgn09 () =
  let est = Stats.Hurst.rescaled_range (fgn ~h:0.9 32768) in
  check_true
    (Printf.sprintf "R/S on fGn(0.9): %.3f in [0.78, 1.0]" est.Stats.Hurst.h)
    (est.Stats.Hurst.h > 0.78 && est.Stats.Hurst.h < 1.0)

let test_aggvar_white () =
  let est = Stats.Hurst.aggregated_variance (white ~seed:55 65536) in
  check_true
    (Printf.sprintf "agg-var on white noise: %.3f near 0.5" est.Stats.Hurst.h)
    (est.Stats.Hurst.h > 0.42 && est.Stats.Hurst.h < 0.58)

let test_aggvar_fgn () =
  (* The aggregated-variance estimator is biased downward, increasingly
     so for high H (finite-sample effect well documented in the LRD
     literature), hence the graded tolerances. *)
  List.iter
    (fun (h, tol) ->
      let est = Stats.Hurst.aggregated_variance (fgn ~seed:57 ~h 65536) in
      check_close ~tol
        (Printf.sprintf "agg-var on fGn(%g)" h)
        h est.Stats.Hurst.h)
    [ (0.6, 0.08); (0.75, 0.08); (0.9, 0.12) ]

let test_periodogram_fgn () =
  List.iter
    (fun h ->
      let est = Stats.Hurst.periodogram (fgn ~seed:59 ~h 65536) in
      check_close ~tol:0.1
        (Printf.sprintf "periodogram on fGn(%g)" h)
        h est.Stats.Hurst.h)
    [ 0.7; 0.9 ]

let test_fit_quality_reported () =
  let est = Stats.Hurst.aggregated_variance (fgn ~seed:63 ~h:0.8 32768) in
  check_true "r^2 of the regression is high"
    (est.Stats.Hurst.r_squared > 0.95);
  check_true "diagnostic points exposed" (Array.length est.Stats.Hurst.points >= 3)

let suite =
  [
    case "R/S on white noise" test_rs_white;
    case "R/S on fGn(0.9)" test_rs_fgn09;
    case "aggregated variance on white noise" test_aggvar_white;
    slow_case "aggregated variance on fGn" test_aggvar_fgn;
    slow_case "periodogram on fGn" test_periodogram_fgn;
    case "fit diagnostics" test_fit_quality_reported;
  ]
