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

(* The per-source reference the fused kernel must reproduce to the
   bit: one [Fractal_onoff] source per substream, and [Dist.poisson] on
   a generator split off after them, fed R times the sources' ON time
   summed in index order. *)
let reference (p : Traffic.Fbndp.params) ~ts rng =
  let dist = Traffic.Onoff_dist.of_alpha ~alpha:p.alpha ~a:p.a in
  let sources =
    Array.init p.m (fun i ->
        Traffic.Fractal_onoff.create dist (Numerics.Rng.jump_to_substream rng i))
  in
  let poisson_rng = Numerics.Rng.split rng in
  fun () ->
    let on_time = ref 0.0 in
    Array.iter
      (fun s -> on_time := !on_time +. Traffic.Fractal_onoff.on_time s ~dt:ts)
      sources;
    float_of_int (Numerics.Dist.poisson poisson_rng ~mean:(p.r *. !on_time))

(* Every FBNDP the paper simulates, and exponents at both ends of
   (0, 1) and between, those without a declared ACF tail among them.
   Seeds and frames per case keep each near a million periods: V^1.5
   draws about 10,000 a frame, Z^a about 160. *)
let kernel_cases =
  let ts = Traffic.Models.ts in
  let z a = (Traffic.Models.z ~a).Traffic.Models.fbndp in
  let v v = (Traffic.Models.v ~v).Traffic.Models.fbndp in
  let alpha alpha =
    Traffic.Fbndp.of_moments ~alpha ~mean:250.0 ~variance:3000.0 ~m:15 ~ts
  in
  List.map (fun a -> (Printf.sprintf "Z^%g" a, z a, 10, 200)) Traffic.Models.z_values
  @ [
      ("V^0.67", v 0.67, 10, 200);
      ("V^1", v 1.0, 5, 100);
      ("V^1.5", v 1.5, 3, 30);
      ("L", Traffic.Models.l_params (), 10, 200);
      ("alpha 0.05", alpha 0.05, 10, 200);
      ("alpha 0.5", alpha 0.5, 10, 200);
      ("alpha 0.95", alpha 0.95, 3, 40);
    ]

let test_kernel_matches_reference () =
  let ts = Traffic.Models.ts in
  List.iter
    (fun (name, p, seeds, frames) ->
      let process = Traffic.Fbndp.process p ~ts in
      for seed = 1 to seeds do
        let next = process.Traffic.Process.spawn (Numerics.Rng.create ~seed) in
        let expected = reference p ~ts (Numerics.Rng.create ~seed) in
        for k = 0 to frames - 1 do
          check_bits (Printf.sprintf "%s seed %d frame %d" name seed k) (expected ()) (next ())
        done
      done)
    kernel_cases

(* A period costs the kernel at most its one boxed uniform (2 words,
   since [Rng.float] is another module's function); a frame adds a
   constant for the Poisson draw.  A call per period into
   [Onoff_dist] would box each period's length as well, doubling it. *)
let test_frame_allocation () =
  let ts = Traffic.Models.ts in
  let p = (Traffic.Models.z ~a:0.975).Traffic.Models.fbndp in
  let next = (Traffic.Fbndp.process p ~ts).Traffic.Process.spawn (rng ~seed:5 ()) in
  for _ = 1 to 100 do ignore (Sys.opaque_identity (next ())) done;
  let frames = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to frames do ignore (Sys.opaque_identity (next ())) done;
  let per_frame = (Gc.minor_words () -. before) /. float_of_int frames in
  let dist = Traffic.Onoff_dist.of_alpha ~alpha:p.alpha ~a:p.a in
  let periods = float_of_int p.m *. ts /. dist.Traffic.Onoff_dist.mean in
  let bound = (2.0 *. 1.1 *. periods) +. 64.0 in
  check_true
    (Printf.sprintf "%.1f minor words per frame of about %.0f periods (<= %.0f)"
       per_frame periods bound)
    (per_frame <= bound)

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
    case "kernel = per-source reference, bit for bit" test_kernel_matches_reference;
    case "frame allocates one uniform per period" test_frame_allocation;
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
