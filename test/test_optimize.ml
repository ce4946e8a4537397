open Helpers

let test_golden_quadratic () =
  let f x = ((x -. 2.5) ** 2.0) +. 1.0 in
  let x = Numerics.Optimize.golden_section ~f ~lo:0.0 ~hi:10.0 ~tol:1e-8 in
  check_close ~tol:1e-6 "golden section on quadratic" 2.5 x

let test_integer_argmin_basic () =
  let f m = float_of_int ((m - 17) * (m - 17)) in
  let r =
    Numerics.Optimize.integer_argmin ~f ~lo:1
      ~stop:(fun ~best:_ ~at ~current:_ -> at > 100)
      ()
  in
  check_int "argmin found" 17 r.Numerics.Optimize.argmin;
  check_close "minimum value" 0.0 r.Numerics.Optimize.minimum

let test_integer_argmin_hard_cap () =
  let f m = 1.0 /. float_of_int m in
  let r =
    Numerics.Optimize.integer_argmin ~f ~lo:1 ~hard_cap:500
      ~stop:(fun ~best:_ ~at:_ ~current:_ -> false)
      ()
  in
  check_int "cap respected" 500 r.Numerics.Optimize.scanned_up_to;
  check_int "monotone decreasing keeps last" 500 r.Numerics.Optimize.argmin

let test_roots_bisect () =
  let f x = (x *. x) -. 2.0 in
  let x = Numerics.Roots.bisect ~f ~lo:0.0 ~hi:2.0 ~tol:1e-10 in
  check_close ~tol:1e-8 "bisect sqrt2" (sqrt 2.0) x

let test_roots_newton () =
  let f x = (x ** 3.0) -. 8.0 in
  let df x = 3.0 *. x *. x in
  let x = Numerics.Roots.newton ~f ~df ~x0:5.0 ~tol:1e-12 in
  check_close ~tol:1e-9 "newton cube root of 8" 2.0 x

let test_roots_brent () =
  let f x = cos x -. x in
  let x = Numerics.Roots.brent ~f ~lo:0.0 ~hi:1.5 ~tol:1e-12 in
  check_close ~tol:1e-8 "brent dottie number" 0.7390851332 x

let suite =
  [
    case "golden section" test_golden_quadratic;
    case "integer argmin" test_integer_argmin_basic;
    case "integer argmin hard cap" test_integer_argmin_hard_cap;
    case "bisect" test_roots_bisect;
    case "newton" test_roots_newton;
    case "brent root" test_roots_brent;
    qcheck "golden section finds random quadratic minimum"
      QCheck2.Gen.(float_range (-50.0) 50.0)
      (fun center ->
        let f x = (x -. center) ** 2.0 in
        let x =
          Numerics.Optimize.golden_section ~f ~lo:(center -. 60.0)
            ~hi:(center +. 60.0) ~tol:1e-7
        in
        Float.abs (x -. center) < 1e-4);
    qcheck "bisect solves x = u on monotone cubic"
      QCheck2.Gen.(float_range (-2.0) 2.0)
      (fun target ->
        let f x = (x ** 3.0) +. x -. ((target ** 3.0) +. target) in
        let x = Numerics.Roots.bisect ~f ~lo:(-3.0) ~hi:3.0 ~tol:1e-10 in
        Float.abs (x -. target) < 1e-6);
    qcheck "brent root solves x = u on monotone cubic"
      QCheck2.Gen.(float_range (-2.0) 2.0)
      (fun target ->
        let f x = (x ** 3.0) +. x -. ((target ** 3.0) +. target) in
        let x = Numerics.Roots.brent ~f ~lo:(-3.0) ~hi:3.0 ~tol:1e-10 in
        Float.abs (x -. target) < 1e-6);
  ]
