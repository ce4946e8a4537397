let pi = 4.0 *. atan 1.0

(* Lanczos coefficients (g = 7, n = 9), standard double-precision set. *)
let lanczos_g = 7.0

let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  assert (x > 0.0 || not (Float.equal (Float.rem x 1.0) 0.0));
  if x < 0.5 then
    (* Reflection keeps the Lanczos sum in its accurate region. *)
    log (pi /. Float.abs (sin (pi *. x))) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let gamma x =
  if x > 0.0 then exp (log_gamma x)
  else begin
    (* Reflection formula: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    assert (not (Float.equal (Float.rem x 1.0) 0.0));
    pi /. (sin (pi *. x) *. exp (log_gamma (1.0 -. x)))
  end

(* N2 waiver: built once at module init; the loop bounds pin the log
   argument to n >= 2. *)
let[@lint.allow "N2"] log_factorial_table =
  let table = Array.make 128 0.0 in
  for n = 2 to 127 do
    table.(n) <- table.(n - 1) +. log (float_of_int n)
  done;
  table

let log_factorial n =
  assert (n >= 0);
  if n < 128 then log_factorial_table.(n)
  else log_gamma (float_of_int n +. 1.0)

(* Abramowitz & Stegun 7.1.26; |error| <= 1.5e-7, adequate for CDF
   evaluation in tests and histograms. *)
(* N2 waiver: exp's argument is -x^2 <= 0 (no overflow; underflow is
   the correct tail behaviour) and the divisor is 1 + 0.33|x| >= 1. *)
let[@lint.allow "N2"] erf x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let poly =
    ((((1.061405429 *. t -. 1.453152027) *. t +. 1.421413741) *. t
     -. 0.284496736)
       *. t
    +. 0.254829592)
    *. t
  in
  sign *. (1.0 -. (poly *. exp (-.x *. x)))

let erfc x = 1.0 -. erf x

let normal_cdf x = 0.5 *. erfc (-.x /. sqrt 2.0)

(* Acklam's inverse normal CDF: central rational approximation plus a
   tail approximation applied by symmetry. *)
let acklam_a =
  [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
     1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]

let acklam_b =
  [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
     6.680131188771972e+01; -1.328068155288572e+01 |]

let acklam_c =
  [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
     -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]

let acklam_d =
  [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
     3.754408661907416e+00 |]

let acklam_tail p =
  assert (p > 0.0 && p < 1.0);
  let c = acklam_c and d = acklam_d in
  let q = sqrt (-2.0 *. log p) in
  (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
  +. c.(5))
  /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)

let normal_quantile p =
  assert (p > 0.0 && p < 1.0);
  let p_low = 0.02425 in
  if p < p_low then acklam_tail p
  else if p > 1.0 -. p_low then -.acklam_tail (1.0 -. p)
  else begin
    let a = acklam_a and b = acklam_b in
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
    +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r
       +. 1.0)
  end

(* Hill's (1970) expansion of the t quantile in terms of the normal
   quantile; accurate to ~1e-4 for df >= 2 which is plenty for CI
   half-widths. *)
let student_t_quantile ~df p =
  assert (df > 0);
  assert (p > 0.0 && p < 1.0);
  let n = float_of_int df in
  if df = 1 then tan (pi *. (p -. 0.5))
  else if df = 2 then begin
    let s = 2.0 *. p -. 1.0 in
    s *. sqrt (2.0 /. (1.0 -. (s *. s)))
  end
  else begin
    let z = normal_quantile p in
    let g1 = (z ** 3.0 +. z) /. 4.0 in
    let g2 = ((5.0 *. (z ** 5.0)) +. (16.0 *. (z ** 3.0)) +. (3.0 *. z)) /. 96.0 in
    let g3 =
      ((3.0 *. (z ** 7.0)) +. (19.0 *. (z ** 5.0)) +. (17.0 *. (z ** 3.0))
      -. (15.0 *. z))
      /. 384.0
    in
    let g4 =
      ((79.0 *. (z ** 9.0)) +. (776.0 *. (z ** 7.0)) +. (1482.0 *. (z ** 5.0))
      -. (1920.0 *. (z ** 3.0))
      -. (945.0 *. z))
      /. 92160.0
    in
    z +. (g1 /. n) +. (g2 /. (n *. n)) +. (g3 /. (n ** 3.0)) +. (g4 /. (n ** 4.0))
  end

let pow x y =
  assert (x >= 0.0);
  if Float.equal y 0.0 then 1.0 else if Float.equal x 0.0 then 0.0 else exp (y *. log x)
