open Helpers

let test_stats_and_aggregate () =
  let t = { Traffic.Trace.frames = [| 2.0; 4.0; 6.0; 8.0 |] } in
  check_close "mean" 5.0 (Traffic.Trace.mean t)

let test_acf () =
  let z = Traffic.Models.s ~a:0.975 ~p:1 in
  let t = Traffic.Trace.of_process z (rng ~seed:163 ()) ~n:100_000 in
  let r = Traffic.Trace.acf t ~max_lag:1 in
  check_close ~tol:0.02 "trace acf lag 1" 0.821 r.(1)

let suite =
  [
    case "stats and aggregation" test_stats_and_aggregate;
    slow_case "trace acf" test_acf;
  ]
