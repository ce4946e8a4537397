open Helpers

let test_shared_marginal () =
  (* The crucial design property: all four models have the identical
     Gaussian marginal, so queueing differences are pure correlation
     effects. *)
  let models =
    List.map (fun a -> (Traffic.Models.z ~a).Traffic.Models.process)
      Traffic.Models.z_values
    @ List.map (fun v -> (Traffic.Models.v ~v).Traffic.Models.process)
        Traffic.Models.v_values
    @ [ Traffic.Models.l () ]
    @ List.map (fun p -> Traffic.Models.s ~a:0.975 ~p) [ 1; 2; 3 ]
  in
  List.iter
    (fun m ->
      check_close ~tol:1e-9
        (m.Traffic.Process.name ^ " mean")
        500.0 m.Traffic.Process.mean;
      check_close ~tol:1e-6
        (m.Traffic.Process.name ^ " variance")
        5000.0 m.Traffic.Process.variance)
    models

let test_z_t0_anchor () =
  let z = Traffic.Models.z ~a:0.7 in
  check_close ~tol:0.01 "Z component T0 = 2.57 msec" 2.57
    (Traffic.Fbndp.fractal_onset_time z.Traffic.Models.fbndp *. 1000.0);
  check_close_rel ~tol:1e-9 "Z component lambda = 6250" 6250.0
    (Traffic.Fbndp.lambda z.Traffic.Models.fbndp)

let test_z_hurst () =
  List.iter
    (fun a ->
      let z = (Traffic.Models.z ~a).Traffic.Models.process in
      check_true
        (Printf.sprintf "Z^%g has H = 0.9" a)
        (z.Traffic.Process.hurst = Some 0.9))
    Traffic.Models.z_values

let test_z_lag1 () =
  (* r(1) = (r_X(1) + a) / 2 with r_X(1) = 0.9 * (2^0.8 - 1). *)
  let r_x1 = 0.9 *. ((2.0 ** 0.8) -. 1.0) in
  List.iter
    (fun a ->
      let z = (Traffic.Models.z ~a).Traffic.Models.process in
      check_close ~tol:1e-9
        (Printf.sprintf "Z^%g lag 1" a)
        ((r_x1 +. a) /. 2.0)
        (z.Traffic.Process.acf 1))
    Traffic.Models.z_values

let test_v_equal_lag1 () =
  let reference = (Traffic.Models.v ~v:1.0).Traffic.Models.process in
  let target = reference.Traffic.Process.acf 1 in
  List.iter
    (fun v ->
      let m = (Traffic.Models.v ~v).Traffic.Models.process in
      check_close ~tol:1e-9
        (Printf.sprintf "V^%g lag-1 pinned" v)
        target
        (m.Traffic.Process.acf 1))
    Traffic.Models.v_values

let test_v_tail_ordering () =
  (* Larger v puts more weight on the LRD component: bigger tail. *)
  let at k v = ((Traffic.Models.v ~v).Traffic.Models.process).Traffic.Process.acf k in
  check_true "tail ordering at lag 100" (at 100 1.5 > at 100 0.67);
  check_true "tail ordering at lag 500" (at 500 1.5 > at 500 0.67)

let test_z_l_tails_agree () =
  (* The paper tunes L's alpha = 0.72 so its ACF tail matches Z's. *)
  let z = (Traffic.Models.z ~a:0.9).Traffic.Models.process in
  let l = Traffic.Models.l () in
  List.iter
    (fun k ->
      check_close_rel ~tol:0.1
        (Printf.sprintf "tails agree at %d" k)
        (z.Traffic.Process.acf k)
        (l.Traffic.Process.acf k))
    [ 500; 1000; 2000 ]

let test_dar_fits_match_paper () =
  (* Table 1 reports the fits to three decimals. *)
  let check_fit a p rho weights =
    let fit = Traffic.Models.s_params ~a ~p in
    check_close ~tol:0.005 (Printf.sprintf "rho Z^%g p=%d" a p) rho
      fit.Traffic.Dar.rho;
    List.iteri
      (fun i w ->
        check_close ~tol:0.01
          (Printf.sprintf "a_%d Z^%g p=%d" (i + 1) a p)
          w
          fit.Traffic.Dar.weights.(i))
      weights
  in
  (* Columns as printed in the paper's Table 1 (first column belongs to
     Z^0.975 by the lag-1 value 0.821, second to Z^0.7). *)
  check_fit 0.975 1 0.82 [ 1.0 ];
  check_fit 0.975 2 0.868 [ 0.70; 0.30 ];
  check_fit 0.975 3 0.889 [ 0.63; 0.18; 0.19 ];
  check_fit 0.7 1 0.683 [ 1.0 ];
  check_fit 0.7 2 0.72 [ 0.84; 0.16 ];
  check_fit 0.7 3 0.738 [ 0.81; 0.10; 0.09 ]

let test_s_matches_z_short_lags () =
  List.iter
    (fun a ->
      List.iter
        (fun p ->
          let z = (Traffic.Models.z ~a).Traffic.Models.process in
          let s = Traffic.Models.s ~a ~p in
          for k = 1 to p do
            check_close ~tol:1e-9
              (Printf.sprintf "S(p=%d) lag %d of Z^%g" p k a)
              (z.Traffic.Process.acf k)
              (s.Traffic.Process.acf k)
          done)
        [ 1; 2; 3 ])
    [ 0.7; 0.975 ]

let test_l_params () =
  let l = Traffic.Models.l_params () in
  check_close "L alpha" 0.72 l.Traffic.Fbndp.alpha;
  check_int "L M = 30" 30 l.Traffic.Fbndp.m;
  check_close_rel ~tol:1e-9 "L lambda = 12500" 12500.0 (Traffic.Fbndp.lambda l);
  check_close ~tol:1e-9 "L hurst" 0.86 (Traffic.Fbndp.hurst l)

let test_generation_moments () =
  let z = (Traffic.Models.z ~a:0.9).Traffic.Models.process in
  let x = Traffic.Process.generate z (rng ~seed:151 ()) 60_000 in
  let s = Stats.Descriptive.summarize x in
  check_close_rel ~tol:0.05 "Z sample mean" 500.0 s.Stats.Descriptive.mean;
  check_close_rel ~tol:0.2 "Z sample variance" 5000.0 s.Stats.Descriptive.variance;
  (* Approximate Gaussianity from M = 15 + Gaussian DAR component. *)
  check_true "skewness small" (Float.abs s.Stats.Descriptive.skewness < 0.25)

let test_z_is_lrd_empirically () =
  let z = (Traffic.Models.z ~a:0.7).Traffic.Models.process in
  let x = Traffic.Process.generate z (rng ~seed:153 ()) 65536 in
  let est = Stats.Hurst.aggregated_variance x in
  check_true
    (Printf.sprintf "aggregated-variance H = %.3f > 0.7" est.Stats.Hurst.h)
    (est.Stats.Hurst.h > 0.7)

let test_z975_frame_allocation () =
  (* Per frame the FBNDP part's 15 ON/OFF sources end ~158 periods,
     each drawing one duration.  The bound holds only while a draw
     allocates little beyond its boxed result: boxing the xoshiro
     state costs ~20 words more per draw, ~4,000 per frame. *)
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let next = z.Traffic.Process.spawn (rng ~seed:1996 ()) in
  for _ = 1 to 100 do ignore (Sys.opaque_identity (next ())) done;
  let frames = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to frames do ignore (Sys.opaque_identity (next ())) done;
  let per_frame = (Gc.minor_words () -. before) /. float_of_int frames in
  check_true
    (Printf.sprintf "Z^0.975 source frame allocates %.0f minor words (< 1,000)" per_frame)
    (per_frame < 1000.0)

let suite =
  [
    case "all models share the marginal" test_shared_marginal;
    case "Z anchors from Table 1" test_z_t0_anchor;
    case "Z hurst" test_z_hurst;
    case "Z lag-1 closed form" test_z_lag1;
    case "V^v equal lag-1" test_v_equal_lag1;
    case "V^v tail ordering" test_v_tail_ordering;
    case "Z and L tails agree" test_z_l_tails_agree;
    case "DAR fits match Table 1" test_dar_fits_match_paper;
    case "S matches Z's first p lags" test_s_matches_z_short_lags;
    case "L parameters" test_l_params;
    case "Z^0.975 source frame: allocation bound" test_z975_frame_allocation;
    slow_case "generated moments" test_generation_moments;
    slow_case "Z is empirically LRD" test_z_is_lrd_empirically;
  ]
