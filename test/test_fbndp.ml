open Helpers

let ts = 0.04

let test_of_target_roundtrip () =
  let p = Traffic.Fbndp.of_target ~alpha:0.8 ~lambda:6250.0 ~t0:0.002566 ~m:15 in
  check_close_rel ~tol:1e-9 "lambda recovered" 6250.0 (Traffic.Fbndp.lambda p);
  check_close_rel ~tol:1e-9 "T0 recovered" 0.002566
    (Traffic.Fbndp.fractal_onset_time p);
  check_close ~tol:1e-12 "hurst" 0.9 (Traffic.Fbndp.hurst p)

let test_of_moments () =
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  check_close_rel ~tol:1e-9 "frame mean" 250.0 (Traffic.Fbndp.frame_mean p ~ts);
  check_close_rel ~tol:1e-9 "frame variance" 2500.0
    (Traffic.Fbndp.frame_variance p ~ts)

let test_table1_z_anchor () =
  (* Paper Table 1: Z^a FBNDP component has lambda 6250 cells/s and
     T0 = 2.57 msec at alpha = 0.8, M = 15. *)
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  check_close_rel ~tol:1e-6 "lambda = 6250" 6250.0 (Traffic.Fbndp.lambda p);
  check_close ~tol:0.01 "T0 = 2.57 msec" 2.57
    (Traffic.Fbndp.fractal_onset_time p *. 1000.0)

let test_table1_v_anchor () =
  (* V^1: alpha = 0.9, T0 = 3.48 msec. *)
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.9 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  check_close ~tol:0.01 "T0 = 3.48 msec" 3.48
    (Traffic.Fbndp.fractal_onset_time p *. 1000.0)

let test_acf_form () =
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  check_close ~tol:1e-12 "r(0) = 1" 1.0 (Traffic.Fbndp.frame_acf p ~ts 0);
  (* r(k) = g * (1/2) nabla^2 k^(alpha+1), exact-LRD form. *)
  let g = Traffic.Fbndp.g_factor p ~ts in
  let expected k =
    let e = 1.8 in
    let kf = float_of_int k in
    g *. 0.5 *. (((kf +. 1.0) ** e) -. (2.0 *. (kf ** e)) +. ((kf -. 1.0) ** e))
  in
  for k = 1 to 50 do
    check_close ~tol:1e-12
      (Printf.sprintf "acf lag %d" k)
      (expected k)
      (Traffic.Fbndp.frame_acf p ~ts k)
  done;
  (* g = (var/mean - 1) / (var/mean) = 9/10 here. *)
  check_close ~tol:1e-9 "g factor" 0.9 g

let test_acf_powerlaw_tail () =
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  (* r(k) ~ g H (2H-1) k^(2H-2): ratio r(2k)/r(k) -> 2^(alpha-1). *)
  let r = Traffic.Fbndp.frame_acf p ~ts in
  let ratio = r 2000 /. r 1000 in
  check_close ~tol:1e-3 "tail decay exponent" (2.0 ** (0.8 -. 1.0)) ratio

let test_acf_hoisted_g_bit_identical () =
  (* [process]'s ACF is [frame_acf p ~ts] partially applied (g(T_s)
     computed once); it must equal the fully applied form to the bit,
     and the model processes must keep their tabulated values. *)
  let ts = Traffic.Models.ts in
  let p = Traffic.Models.l_params () in
  let acf = (Traffic.Fbndp.process p ~ts).Traffic.Process.acf in
  for k = 0 to 2000 do
    check_bits (Printf.sprintf "L r(%d)" k) (Traffic.Fbndp.frame_acf p ~ts k) (acf k)
  done;
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process.Traffic.Process.acf in
  let l = (Traffic.Models.l ()).Traffic.Process.acf in
  check_bits "Z^0.975 r(1)" 0.82099550696651169 (z 1);
  check_bits "Z^0.975 r(1000)" 0.081385122016905675 (z 1000);
  check_bits "L r(1)" 0.58246383108163158 (l 1);
  check_bits "L r(1000)" 0.08055146995175165 (l 1000)

let test_simulated_moments () =
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  let process = Traffic.Fbndp.process p ~ts in
  let x = Traffic.Process.generate process (rng ~seed:91 ()) 60_000 in
  let s = Stats.Descriptive.summarize x in
  (* LRD series: sample means converge like n^(H-1), so tolerances are
     necessarily loose. *)
  check_close_rel ~tol:0.12 "simulated mean" 250.0 s.Stats.Descriptive.mean;
  check_close_rel ~tol:0.3 "simulated variance" 2500.0
    s.Stats.Descriptive.variance

let test_simulated_short_acf () =
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
  in
  let process = Traffic.Fbndp.process p ~ts in
  let x = Traffic.Process.generate process (rng ~seed:93 ()) 120_000 in
  let sample = Stats.Acf.autocorrelation_fft x ~max_lag:3 in
  for k = 1 to 3 do
    check_close ~tol:0.05
      (Printf.sprintf "simulated acf lag %d" k)
      (Traffic.Fbndp.frame_acf p ~ts k)
      sample.(k)
  done

let test_counts_nonnegative_integers () =
  let p =
    Traffic.Fbndp.of_moments ~alpha:0.7 ~mean:100.0 ~variance:900.0 ~m:10 ~ts
  in
  let process = Traffic.Fbndp.process p ~ts in
  let next = process.Traffic.Process.spawn (rng ~seed:95 ()) in
  for _ = 1 to 5_000 do
    let v = next () in
    check_true "integer count" (Float.equal (Float.rem v 1.0) 0.0);
    check_true "non-negative" (v >= 0.0)
  done

let test_invalid () =
  Alcotest.check_raises "variance below poisson floor"
    (Invalid_argument
       "Fbndp: frame variance must exceed the Poisson floor (mean)")
    (fun () ->
      ignore
        (Traffic.Fbndp.of_moments ~alpha:0.8 ~mean:100.0 ~variance:50.0 ~m:5 ~ts))

let suite =
  [
    case "of_target roundtrip" test_of_target_roundtrip;
    case "of_moments" test_of_moments;
    case "Table 1 anchor: Z component" test_table1_z_anchor;
    case "Table 1 anchor: V component" test_table1_v_anchor;
    case "exact-LRD acf form" test_acf_form;
    case "power-law tail exponent" test_acf_powerlaw_tail;
    case "process acf = frame_acf, pinned bits" test_acf_hoisted_g_bit_identical;
    slow_case "simulated moments" test_simulated_moments;
    slow_case "simulated short-lag acf" test_simulated_short_acf;
    case "counts are non-negative integers" test_counts_nonnegative_integers;
    case "invalid moments rejected" test_invalid;
    qcheck ~count:30 "acf decreasing and positive"
      QCheck2.Gen.(float_range 0.55 0.95)
      (fun alpha ->
        let p =
          Traffic.Fbndp.of_moments ~alpha ~mean:250.0 ~variance:2500.0 ~m:15 ~ts
        in
        let r = Traffic.Fbndp.frame_acf p ~ts in
        let ok = ref true in
        for k = 1 to 100 do
          if not (r k > 0.0 && r k <= r (Stdlib.max 1 (k - 1)) +. 1e-12) then
            ok := false
        done;
        !ok);
  ]
