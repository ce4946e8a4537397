open Helpers

let dar rho =
  Traffic.Dar.make
    (Traffic.Dar.gaussian_marginal ~mean:500.0 ~variance:5000.0)
    { Traffic.Dar.rho; weights = [| 1.0 |] }

let test_window_one_identity () =
  let p = dar 0.8 in
  let s = Traffic.Shaper.smooth p ~window:1 in
  check_close "same variance" p.Traffic.Process.variance s.Traffic.Process.variance;
  check_close ~tol:1e-12 "same acf" (p.Traffic.Process.acf 3) (s.Traffic.Process.acf 3)

let test_mean_preserved_variance_reduced () =
  let p = dar 0.5 in
  let s = Traffic.Shaper.smooth p ~window:4 in
  check_close "mean preserved" 500.0 s.Traffic.Process.mean;
  check_true "variance reduced"
    (s.Traffic.Process.variance < p.Traffic.Process.variance)

let test_iid_variance_reduction () =
  (* For iid input, MA(w) variance is sigma^2 / w and
     acf(k) = (w - k)/w for k < w. *)
  let p = dar 0.0 in
  let w = 5 in
  let s = Traffic.Shaper.smooth p ~window:w in
  check_close_rel ~tol:1e-12 "iid variance / w"
    (5000.0 /. float_of_int w)
    s.Traffic.Process.variance;
  for k = 1 to w - 1 do
    check_close ~tol:1e-12
      (Printf.sprintf "triangular acf at %d" k)
      (float_of_int (w - k) /. float_of_int w)
      (s.Traffic.Process.acf k)
  done;
  check_close ~tol:1e-12 "acf zero beyond window" 0.0 (s.Traffic.Process.acf w)

let test_simulation_matches_analytics () =
  let p = dar 0.7 in
  let s = Traffic.Shaper.smooth p ~window:3 in
  let x = Traffic.Process.generate s (rng ~seed:211 ()) 150_000 in
  let st = Stats.Descriptive.summarize x in
  check_close_rel ~tol:0.01 "simulated mean" 500.0 st.Stats.Descriptive.mean;
  check_close_rel ~tol:0.05 "simulated variance" s.Traffic.Process.variance
    st.Stats.Descriptive.variance;
  let sample = Stats.Acf.autocorrelation_fft x ~max_lag:5 in
  for k = 1 to 5 do
    check_close ~tol:0.02
      (Printf.sprintf "simulated acf lag %d" k)
      (s.Traffic.Process.acf k)
      sample.(k)
  done

let test_hurst_preserved () =
  (* Smoothing must not remove LRD: the ACF tail exponent survives. *)
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let s = Traffic.Shaper.smooth z ~window:12 in
  check_true "hurst metadata preserved"
    (s.Traffic.Process.hurst = z.Traffic.Process.hurst);
  let ratio_original = z.Traffic.Process.acf 2000 /. z.Traffic.Process.acf 1000 in
  let ratio_smoothed = s.Traffic.Process.acf 2000 /. s.Traffic.Process.acf 1000 in
  check_close ~tol:0.01 "tail decay exponent untouched" ratio_original
    ratio_smoothed

let test_cts_of_smoothed_source () =
  (* Smoothing reduces short-term variability, so the smoothed source
     should admit a strictly better (smaller) loss estimate at equal
     buffer. *)
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let s = Traffic.Shaper.smooth z ~window:6 in
  let bop p =
    let vg =
      Core.Variance_growth.create ~acf:p.Traffic.Process.acf
        ~variance:p.Traffic.Process.variance
        ~tail:p.Traffic.Process.tail
    in
    (Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b:134.5 ~n:30)
      .Core.Bahadur_rao.log10_bop
  in
  check_true "smoothing lowers the loss estimate" (bop s < bop z)

let test_delay_accounting () =
  check_close "no delay at w=1" 0.0 (Traffic.Shaper.added_delay_frames ~window:1);
  check_close "w-1 frames" 11.0 (Traffic.Shaper.added_delay_frames ~window:12)

let suite =
  [
    case "window 1 is identity" test_window_one_identity;
    case "mean preserved, variance reduced" test_mean_preserved_variance_reduced;
    case "iid triangular acf" test_iid_variance_reduction;
    slow_case "simulation matches analytics" test_simulation_matches_analytics;
    case "hurst preserved" test_hurst_preserved;
    case "CTS of smoothed source" test_cts_of_smoothed_source;
    case "delay accounting" test_delay_accounting;
    qcheck ~count:30 "variance reduction in (0, 1] and decreasing in w"
      QCheck2.Gen.(pair (float_range 0.0 0.95) (int_range 2 16))
      (fun (rho, w) ->
        let p = dar rho in
        let reduction window =
          (Traffic.Shaper.smooth p ~window).Traffic.Process.variance
          /. p.Traffic.Process.variance
        in
        let r1 = reduction w and r2 = reduction (w + 1) in
        r1 > 0.0 && r1 <= 1.0 && r2 <= r1 +. 1e-12);
  ]
