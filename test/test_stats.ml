open Helpers

let gaussian_sample ?(seed = 31) n =
  let a = rng ~seed () in
  Array.init n (fun _ -> Numerics.Dist.standard_gaussian a)

let ar1_sample ?(seed = 33) ~rho n =
  let a = rng ~seed () in
  let x = Array.make n 0.0 in
  let innovation_std = sqrt (1.0 -. (rho *. rho)) in
  x.(0) <- Numerics.Dist.standard_gaussian a;
  for t = 1 to n - 1 do
    x.(t) <-
      (rho *. x.(t - 1))
      +. Numerics.Dist.gaussian a ~mean:0.0 ~std:innovation_std
  done;
  x

let test_summary () =
  let s = Stats.Descriptive.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_close "mean" 3.0 s.Stats.Descriptive.mean;
  check_close "variance" 2.5 s.Stats.Descriptive.variance;
  check_close "skewness of symmetric data" 0.0 s.Stats.Descriptive.skewness;
  check_close "min" 1.0 s.Stats.Descriptive.min;
  check_close "max" 5.0 s.Stats.Descriptive.max

let test_gaussian_moments () =
  let s = Stats.Descriptive.summarize (gaussian_sample 200_000) in
  check_close ~tol:0.02 "gaussian skewness" 0.0 s.Stats.Descriptive.skewness;
  check_close ~tol:0.06 "gaussian excess kurtosis" 0.0
    s.Stats.Descriptive.kurtosis_excess

let test_covariance () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_close_rel ~tol:1e-12 "cov(x, 2x) = 2 var x"
    (2.0 *. Numerics.Float_array.variance x)
    (Stats.Descriptive.covariance x y);
  check_close ~tol:1e-12 "perfect correlation" 1.0
    (Stats.Descriptive.correlation x y)

let test_acf_iid () =
  let r = Stats.Acf.autocorrelation (gaussian_sample 50_000) ~max_lag:5 in
  check_close "lag 0 is 1" 1.0 r.(0);
  for k = 1 to 5 do
    check_close ~tol:0.02 (Printf.sprintf "iid lag %d near 0" k) 0.0 r.(k)
  done

let test_acf_ar1 () =
  let rho = 0.8 in
  let r = Stats.Acf.autocorrelation (ar1_sample ~rho 200_000) ~max_lag:5 in
  for k = 1 to 5 do
    check_close ~tol:0.03
      (Printf.sprintf "AR(1) lag %d" k)
      (rho ** float_of_int k)
      r.(k)
  done

let test_acf_fft_agrees () =
  let x = ar1_sample ~seed:35 ~rho:0.6 5_000 in
  let direct = Stats.Acf.autocorrelation x ~max_lag:50 in
  let fast = Stats.Acf.autocorrelation_fft x ~max_lag:50 in
  for k = 0 to 50 do
    check_close ~tol:1e-9 (Printf.sprintf "lag %d" k) direct.(k) fast.(k)
  done

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stats.Histogram.add h) [ -1.0; 0.5; 1.5; 2.5; 9.9; 11.0; 10.0 ];
  check_int "underflow" 1 (Stats.Histogram.underflow h);
  check_int "overflow" 2 (Stats.Histogram.overflow h);
  check_int "total" 7 (Stats.Histogram.total h);
  let counts = Stats.Histogram.counts h in
  check_int "bin 0" 2 counts.(0);
  check_int "bin 1" 1 counts.(1);
  check_int "bin 4" 1 counts.(4)

let test_histogram_chi_square_gaussian () =
  let h = Stats.Histogram.create ~lo:(-4.0) ~hi:4.0 ~bins:32 in
  Array.iter (Stats.Histogram.add h) (gaussian_sample ~seed:37 50_000);
  let stat = Stats.Histogram.chi_square_vs h ~cdf:Numerics.Special.normal_cdf in
  (* 31 dof: the 99.9th percentile is ~ 61; a correct sampler stays
     well below. *)
  check_true
    (Printf.sprintf "chi-square %.1f below 61" stat)
    (stat < 61.0)

let test_ci () =
  let ci = Stats.Ci.mean_ci [| 10.0; 12.0; 11.0; 13.0; 9.0 |] in
  check_close "point estimate" 11.0 ci.Stats.Ci.point;
  check_true "half width positive" (ci.Stats.Ci.half_width > 0.0);
  (* Wider confidence level gives wider interval. *)
  let ci99 = Stats.Ci.mean_ci ~level:0.99 [| 10.0; 12.0; 11.0; 13.0; 9.0 |] in
  check_true "99% wider than 95%"
    (ci99.Stats.Ci.half_width > ci.Stats.Ci.half_width)

let test_regression_exact () =
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let y = Array.map (fun v -> (2.5 *. v) -. 1.0) x in
  let fit = Stats.Regression.linear ~x ~y in
  check_close ~tol:1e-10 "slope" 2.5 fit.Stats.Regression.slope;
  check_close ~tol:1e-10 "intercept" (-1.0) fit.Stats.Regression.intercept;
  check_close ~tol:1e-10 "r^2" 1.0 fit.Stats.Regression.r_squared;
  check_close ~tol:1e-10 "stderr" 0.0 fit.Stats.Regression.stderr_slope

let test_regression_log_log () =
  let x = [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
  let y = Array.map (fun v -> 3.0 *. (v ** 1.7)) x in
  let fit = Stats.Regression.log_log ~x ~y in
  check_close ~tol:1e-9 "power-law slope" 1.7 fit.Stats.Regression.slope;
  check_close ~tol:1e-9 "power-law intercept" (log 3.0)
    fit.Stats.Regression.intercept

let suite =
  [
    case "summary" test_summary;
    case "gaussian higher moments" test_gaussian_moments;
    case "covariance and correlation" test_covariance;
    case "acf of iid noise" test_acf_iid;
    case "acf of AR(1)" test_acf_ar1;
    case "acf fft vs direct" test_acf_fft_agrees;
    case "histogram counting" test_histogram;
    case "chi-square vs gaussian" test_histogram_chi_square_gaussian;
    case "confidence interval" test_ci;
    case "regression exact line" test_regression_exact;
    case "regression log-log power law" test_regression_log_log;
    qcheck "acf bounded by 1" QCheck2.Gen.(int_range 1 20)
      (fun lag ->
        let x = ar1_sample ~seed:41 ~rho:0.5 2_000 in
        let r = Stats.Acf.autocorrelation x ~max_lag:lag in
        Array.for_all (fun v -> Float.abs v <= 1.0 +. 1e-9) r);
  ]
