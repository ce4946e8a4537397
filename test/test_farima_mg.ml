open Helpers

(* M/G/infinity *)

let mg = Traffic.Mg_infinity.create ~beta:1.5 ~session_rate:4.0 ()

let zeta_brute beta n0 =
  let acc = ref 0.0 in
  for n = n0 to 2_000_000 do
    acc := !acc +. (float_of_int n ** -.beta)
  done;
  !acc

let test_mg_mean_holding () =
  (* E L = zeta(1.5) = 2.612375... *)
  check_close ~tol:1e-3 "zeta(1.5)" 2.612375
    (Traffic.Mg_infinity.mean_holding mg)

let test_mg_zeta_tail_vs_brute () =
  List.iter
    (fun k ->
      let analytic = Traffic.Mg_infinity.acf mg k in
      let brute = zeta_brute 1.5 (k + 1) /. zeta_brute 1.5 1 in
      check_close ~tol:1e-3 (Printf.sprintf "acf(%d)" k) brute analytic)
    [ 1; 5; 50 ]

let test_mg_hurst () =
  check_close "H = (3 - beta)/2" 0.75 (Traffic.Mg_infinity.hurst mg)

let test_mg_acf_shape () =
  check_close "r(0)" 1.0 (Traffic.Mg_infinity.acf mg 0);
  let prev = ref 1.0 in
  for k = 1 to 100 do
    let r = Traffic.Mg_infinity.acf mg k in
    check_true "decreasing positive" (r > 0.0 && r <= !prev);
    prev := r
  done

let test_mg_simulated_moments () =
  let p = Traffic.Mg_infinity.process mg in
  let x = Traffic.Process.generate p (rng ~seed:125 ()) 60_000 in
  let s = Stats.Descriptive.summarize x in
  check_close_rel ~tol:0.1 "mean active sessions"
    (Traffic.Mg_infinity.frame_mean mg)
    s.Stats.Descriptive.mean;
  check_close_rel ~tol:0.25 "variance"
    (Traffic.Mg_infinity.frame_variance mg)
    s.Stats.Descriptive.variance

let test_mg_simulated_acf () =
  let p = Traffic.Mg_infinity.process mg in
  let x = Traffic.Process.generate p (rng ~seed:127 ()) 120_000 in
  let sample = Stats.Acf.autocorrelation_fft x ~max_lag:2 in
  for k = 1 to 2 do
    check_close ~tol:0.05
      (Printf.sprintf "mg acf lag %d" k)
      (Traffic.Mg_infinity.acf mg k)
      sample.(k)
  done

let suite =
  [
    case "mg mean holding = zeta(beta)" test_mg_mean_holding;
    case "mg acf vs brute-force zeta" test_mg_zeta_tail_vs_brute;
    case "mg hurst" test_mg_hurst;
    case "mg acf shape" test_mg_acf_shape;
    slow_case "mg simulated moments" test_mg_simulated_moments;
    slow_case "mg simulated acf" test_mg_simulated_acf;
  ]
