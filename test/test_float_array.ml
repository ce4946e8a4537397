open Helpers
module Fa = Numerics.Float_array

let test_sum_kahan () =
  (* Many tiny terms plus a huge one: naive summation loses them. *)
  let n = 1_000_000 in
  let x = Array.make (n + 1) 1e-10 in
  x.(0) <- 1.0;
  check_close ~tol:1e-12 "compensated sum" (1.0 +. (1e-10 *. float_of_int n))
    (Fa.sum x)

let test_mean_var () =
  let x = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "mean" 5.0 (Fa.mean x);
  check_close "population variance" 4.0 (Fa.variance_population x);
  check_close_rel ~tol:1e-12 "sample variance" (32.0 /. 7.0) (Fa.variance x)

let test_min_max_dot () =
  let x = [| 3.0; -1.0; 4.0 |] in
  check_close "min" (-1.0) (Fa.min x);
  check_close "max" 4.0 (Fa.max x)

let test_prefix_sums () =
  let p = Fa.prefix_sums [| 1.0; 2.0; 3.0 |] in
  check_int "length" 4 (Array.length p);
  check_close "p0" 0.0 p.(0);
  check_close "p1" 1.0 p.(1);
  check_close "p2" 3.0 p.(2);
  check_close "p3" 6.0 p.(3)

let test_linspace () =
  let x = Fa.linspace ~lo:0.0 ~hi:1.0 ~n:5 in
  check_int "count" 5 (Array.length x);
  check_close "first" 0.0 x.(0);
  check_close "middle" 0.5 x.(2);
  check_close "last" 1.0 x.(4)

let test_logspace () =
  let x = Fa.logspace ~lo:1.0 ~hi:1000.0 ~n:4 in
  check_close ~tol:1e-9 "first" 1.0 x.(0);
  check_close ~tol:1e-9 "second" 10.0 x.(1);
  check_close ~tol:1e-9 "third" 100.0 x.(2);
  check_close ~tol:1e-9 "last" 1000.0 x.(3)

let test_aggregate () =
  let x = [| 1.0; 3.0; 2.0; 4.0; 100.0 |] in
  let a = Fa.aggregate x ~block:2 in
  check_int "tail dropped" 2 (Array.length a);
  check_close "block 0" 2.0 a.(0);
  check_close "block 1" 3.0 a.(1)

let test_normalize () =
  let x = [| 2.0; 6.0; 2.0 |] in
  Fa.normalize_in_place x;
  check_close "sums to one" 1.0 (Fa.sum x);
  check_close "proportions kept" 0.6 x.(1)

let suite =
  [
    case "kahan sum" test_sum_kahan;
    case "mean and variance" test_mean_var;
    case "min max dot" test_min_max_dot;
    case "prefix sums" test_prefix_sums;
    case "linspace" test_linspace;
    case "logspace" test_logspace;
    case "aggregate" test_aggregate;
    case "normalize" test_normalize;
    qcheck "aggregate preserves overall mean on exact blocks"
      QCheck2.Gen.(pair (int_range 1 20) (int_range 1 20))
      (fun (blocks, block) ->
        let a = rng ~seed:(blocks + (7 * block)) () in
        let x =
          Array.init (blocks * block) (fun _ -> Numerics.Rng.float a)
        in
        let agg = Fa.aggregate x ~block in
        Float.abs (Fa.mean agg -. Fa.mean x) < 1e-10);
  ]
