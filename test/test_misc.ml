open Helpers

(* Edge cases and small behaviours not covered by the per-module
   suites. *)

let test_histogram_density () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:2.0 ~bins:2 in
  List.iter (Stats.Histogram.add h) [ 0.5; 0.6; 1.5; 3.0 ];
  let d = Stats.Histogram.density h in
  (* 4 observations total (incl. overflow), width 1: bin0 carries 2/4. *)
  check_close "density bin 0" 0.5 d.(0);
  check_close "density bin 1" 0.25 d.(1);
  let centers = Stats.Histogram.bin_centers h in
  check_close "center 0" 0.5 centers.(0);
  check_close "center 1" 1.5 centers.(1)

let test_ci_helpers () =
  let ci = { Stats.Ci.point = 1e-4; half_width = 5e-5; level = 0.95 } in
  check_close_rel ~tol:1e-12 "relative half width" 0.5
    (Stats.Ci.relative_half_width ci);
  let lo, hi = Stats.Ci.log10_interval ci in
  check_close ~tol:1e-9 "log10 lower" (log10 5e-5) lo;
  check_close ~tol:1e-9 "log10 upper" (log10 1.5e-4) hi;
  (* Lower endpoint clipped to stay finite. *)
  let wide = { Stats.Ci.point = 1e-4; half_width = 1.0; level = 0.95 } in
  let lo, _ = Stats.Ci.log10_interval wide in
  check_true "clipped lower endpoint is finite" (Float.is_finite lo)

let test_map2 () =
  let r = Numerics.Float_array.map2 ( *. ) [| 1.0; 2.0 |] [| 3.0; 4.0 |] in
  check_close "map2 0" 3.0 r.(0);
  check_close "map2 1" 8.0 r.(1)

let test_erfc () =
  check_close ~tol:1e-7 "erfc 0" 1.0 (Numerics.Special.erfc 0.0);
  check_close ~tol:2e-7 "erfc symmetric"
    (2.0 -. Numerics.Special.erfc 1.3)
    (Numerics.Special.erfc (-1.3))

let test_dar_iid_case () =
  (* rho = 0 is the i.i.d. degenerate case; ACF collapses to a spike. *)
  let params = { Traffic.Dar.rho = 0.0; weights = [| 1.0 |] } in
  Traffic.Dar.validate params;
  check_close "iid acf lag 1" 0.0 (Traffic.Dar.acf params 1);
  let p =
    Traffic.Dar.make
      (Traffic.Dar.gaussian_marginal ~mean:0.0 ~variance:1.0)
      params
  in
  let x = Traffic.Process.generate p (rng ~seed:221 ()) 50_000 in
  let r = Stats.Acf.autocorrelation x ~max_lag:1 in
  check_close ~tol:0.02 "iid simulated lag 1" 0.0 r.(1)

let test_onoff_alpha_gamma_mapping () =
  let d = Traffic.Onoff_dist.of_alpha ~alpha:0.8 ~a:1.0 in
  check_close "gamma = 2 - alpha" 1.2 d.Traffic.Onoff_dist.gamma

let test_process_scale_name () =
  let base =
    Traffic.Dar.make
      (Traffic.Dar.gaussian_marginal ~mean:10.0 ~variance:4.0)
      { Traffic.Dar.rho = 0.5; weights = [| 1.0 |] }
  in
  let scaled = Traffic.Process.scale base 2.0 in
  check_true "scaled name mentions factor"
    (contains_substring scaled.Traffic.Process.name "2");
  check_close "acf invariant under scaling"
    (base.Traffic.Process.acf 2)
    (scaled.Traffic.Process.acf 2)

let test_shaper_invalid () =
  let p =
    Traffic.Dar.make
      (Traffic.Dar.gaussian_marginal ~mean:10.0 ~variance:4.0)
      { Traffic.Dar.rho = 0.5; weights = [| 1.0 |] }
  in
  check_true "window 0 rejected"
    (match Traffic.Shaper.smooth p ~window:0 with
    | (_ : Traffic.Process.t) -> false
    | exception Invalid_argument _ -> true)

let test_spectrum_low_frequency_monotone () =
  let s =
    Core.Spectrum.create
      ~acf:(fun k -> 0.8 ** float_of_int k)
      ~variance:1.0 ()
  in
  let p1 = Core.Spectrum.low_frequency_power s ~below:0.3 in
  let p2 = Core.Spectrum.low_frequency_power s ~below:1.0 in
  let p3 = Core.Spectrum.low_frequency_power s ~below:3.0 in
  check_true "monotone in cutoff" (p1 < p2 && p2 < p3)

let test_fig2_summaries () =
  let summaries = Experiments.Exp_fig2.summaries () in
  check_int "two paths" 2 (List.length summaries);
  match summaries with
  | [ z; dar ] ->
      (* Aggregate of 10 sources: mean ~ 5000. *)
      check_close_rel ~tol:0.1 "z path mean" 5000.0 z.Experiments.Exp_fig2.mean;
      check_close_rel ~tol:0.05 "dar path mean" 5000.0
        dar.Experiments.Exp_fig2.mean;
      check_true "LRD path measures higher H"
        (z.Experiments.Exp_fig2.hurst_var
        > dar.Experiments.Exp_fig2.hurst_var +. 0.1)
  | _ -> Alcotest.fail "expected exactly two summaries"

let test_admission_required_capacity_bracket () =
  let vg =
    Core.Variance_growth.create
      ~acf:(fun k -> 0.8 ** float_of_int k)
      ~variance:5000.0 ~tail:`Decreasing
  in
  let c =
    Core.Admission.required_capacity vg ~mu:500.0 ~n:10 ~total_buffer:1000.0
      ~target_clr:1e-6
  in
  check_true "above mean load" (c > 5000.0);
  (* Slightly less capacity must miss the target. *)
  let bop capacity =
    (Core.Bahadur_rao.evaluate_total vg ~mu:500.0 ~total_capacity:capacity
       ~total_buffer:1000.0 ~n:10)
      .Core.Bahadur_rao.log10_bop
  in
  check_true "tightness" (bop (c -. 1.0) > -6.0 -. 0.05)

let suite =
  [
    case "histogram density" test_histogram_density;
    case "ci helpers" test_ci_helpers;
    case "map2" test_map2;
    case "erfc" test_erfc;
    case "DAR iid case" test_dar_iid_case;
    case "onoff alpha mapping" test_onoff_alpha_gamma_mapping;
    case "process scale" test_process_scale_name;
    case "shaper invalid window" test_shaper_invalid;
    case "spectrum low-frequency monotone" test_spectrum_low_frequency_monotone;
    slow_case "fig2 summaries" test_fig2_summaries;
    case "required capacity bracket" test_admission_required_capacity_bracket;
  ]
