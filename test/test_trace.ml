open Helpers

let test_acf () =
  let z = Traffic.Models.s ~a:0.975 ~p:1 in
  let frames = Traffic.Process.generate z (rng ~seed:163 ()) 100_000 in
  let r = Stats.Acf.autocorrelation_fft frames ~max_lag:1 in
  check_close ~tol:0.02 "trace acf lag 1" 0.821 r.(1)

let suite = [ slow_case "trace acf" test_acf ]
