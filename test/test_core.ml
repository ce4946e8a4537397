open Helpers

let ar1_vg rho variance =
  Core.Variance_growth.create ~variance ~tail:`Decreasing
    ~acf:(fun k -> rho ** float_of_int k)

let test_variance_growth_vs_naive () =
  let rho = 0.7 and variance = 5000.0 in
  let vg = ar1_vg rho variance in
  let naive m =
    let acc = ref (float_of_int m) in
    for i = 1 to m do
      acc := !acc +. (2.0 *. float_of_int (m - i) *. (rho ** float_of_int i))
    done;
    variance *. !acc
  in
  List.iter
    (fun m ->
      check_close_rel ~tol:1e-10
        (Printf.sprintf "V(%d)" m)
        (naive m)
        (Core.Variance_growth.v vg m))
    [ 1; 2; 3; 5; 10; 100; 1000 ]

let test_variance_growth_v1 () =
  let vg = ar1_vg 0.9 1234.0 in
  check_close "V(1) = sigma^2" 1234.0 (Core.Variance_growth.v vg 1)

let test_variance_growth_iid () =
  let vg =
    Core.Variance_growth.create ~variance:2.0 ~tail:`Decreasing ~acf:(fun _ -> 0.0)
  in
  List.iter
    (fun m ->
      check_close
        (Printf.sprintf "iid V(%d) = m sigma^2" m)
        (2.0 *. float_of_int m)
        (Core.Variance_growth.v vg m))
    [ 1; 7; 64 ]

let test_variance_growth_lrd_asymptote () =
  (* For exact LRD, V(m) ~ g sigma^2 m^2H. *)
  let h = 0.9 and g = 0.9 in
  let acf k = if k = 0 then 1.0 else g *. Traffic.Fgn.acf ~h k in
  let vg = Core.Variance_growth.create ~variance:1.0 ~tail:`Unknown ~acf in
  let ratio m = Core.Variance_growth.v vg m /. (g *. (float_of_int m ** (2.0 *. h))) in
  check_close ~tol:0.02 "LRD variance growth exponent" 1.0 (ratio 5000)

let test_truncated () =
  let vg = ar1_vg 0.8 100.0 in
  let tr = Core.Variance_growth.truncated vg ~at:3 in
  (* Same up to the truncation lag... *)
  check_close_rel ~tol:1e-12 "V(2) unchanged" (Core.Variance_growth.v vg 2)
    (Core.Variance_growth.v tr 2);
  (* ...smaller beyond it. *)
  check_true "V(50) reduced"
    (Core.Variance_growth.v tr 50 < Core.Variance_growth.v vg 50)

let test_cts_zero_buffer () =
  let vg = ar1_vg 0.9 5000.0 in
  let a = Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b:0.0 in
  check_int "m*(0) = 1: correlations are irrelevant at zero buffer" 1
    a.Core.Cts.m_star;
  (* I(c, 0) = (c - mu)^2 / (2 sigma^2) *)
  check_close_rel ~tol:1e-12 "I(c,0)" (38.0 *. 38.0 /. 10000.0) a.Core.Cts.rate

let test_cts_monotone_in_buffer () =
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let vg =
    Core.Variance_growth.create ~acf:z.Traffic.Process.acf
      ~variance:z.Traffic.Process.variance ~tail:z.Traffic.Process.tail
  in
  let prev = ref 0 in
  List.iter
    (fun b ->
      let a = Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b in
      check_true
        (Printf.sprintf "m* non-decreasing at b = %g" b)
        (a.Core.Cts.m_star >= !prev);
      prev := a.Core.Cts.m_star)
    [ 0.0; 10.0; 50.0; 100.0; 200.0; 400.0 ]

let test_cts_ar1_constant () =
  (* For Gaussian AR(1), m* grows like b / (c - mu) (paper, citing
     Courcoubetis & Weber).  The absolute value carries a finite-b
     offset from the sublinear part of V(m), so test the slope. *)
  let vg = ar1_vg 0.9 5000.0 in
  let c = 538.0 and mu = 500.0 in
  let m_at b = float_of_int (Core.Cts.analyze vg ~mu ~c ~b).Core.Cts.m_star in
  let slope = (m_at 8000.0 -. m_at 4000.0) /. 4000.0 in
  check_close_rel ~tol:0.05 "AR(1) CTS slope 1/(c-mu)"
    (1.0 /. (c -. mu))
    slope

let test_cts_lrd_constant () =
  (* For exact-LRD Gaussian, m* ~ H b / ((1-H)(c - mu)). *)
  let h = 0.86 in
  let acf k = if k = 0 then 1.0 else Traffic.Fgn.acf ~h k in
  let vg = Core.Variance_growth.create ~variance:5000.0 ~tail:`Unknown ~acf in
  let b = 1000.0 and c = 538.0 and mu = 500.0 in
  let a = Core.Cts.analyze vg ~mu ~c ~b in
  check_close_rel ~tol:0.05 "LRD CTS closed form"
    (Core.Cts.lrd_closed_form ~h ~mu ~c ~b)
    (float_of_int a.Core.Cts.m_star)

let test_cts_requires_stability () =
  let vg = ar1_vg 0.5 100.0 in
  Alcotest.check_raises "c <= mu rejected"
    (Invalid_argument "Cts.analyze: need c > mu (got c = 400, mu = 500)")
    (fun () -> ignore (Core.Cts.analyze vg ~mu:500.0 ~c:400.0 ~b:10.0))

let test_truncation_beyond_cts_is_free () =
  (* The CTS theorem in action: chopping the ACF beyond m* leaves the
     rate function unchanged. *)
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let vg =
    Core.Variance_growth.create ~acf:z.Traffic.Process.acf
      ~variance:z.Traffic.Process.variance ~tail:z.Traffic.Process.tail
  in
  let b = 134.5 (* 10 msec at c=538, per-source *) in
  let a = Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b in
  let tr = Core.Variance_growth.truncated vg ~at:a.Core.Cts.m_star in
  let a' = Core.Cts.analyze tr ~mu:500.0 ~c:538.0 ~b in
  check_close_rel ~tol:1e-9 "rate unchanged by truncation at m*"
    a.Core.Cts.rate a'.Core.Cts.rate;
  check_int "m* unchanged" a.Core.Cts.m_star a'.Core.Cts.m_star

(* {2 The CTS scan against its reference}

   [reference_scan] is the heuristic scan the certificate replaced:
   [Cts.objective] (hence [Variance_growth.v]) under
   [Numerics.Optimize.integer_argmin], stopping once the objective is
   twice its running minimum past [margin * argmin + 64].  Where that
   finds the true minimum, the certified scan must reproduce its m*
   and rate to the bit, on fresh tables that it grows itself, and
   look no further; on a table with no tail bound the scan is the
   heuristic, step for step. *)
let reference_scan ~margin vg ~mu ~c ~b =
  let argmin_so_far = ref 1 in
  let f m = Core.Cts.objective vg ~mu ~c ~b m in
  let best_value = ref (f 1) in
  Numerics.Optimize.integer_argmin ~f ~lo:1
    ~stop:(fun ~best ~at ~current ->
      if best < !best_value then begin
        best_value := best;
        argmin_so_far := at
      end;
      current > 2.0 *. best && at > (margin * !argmin_so_far) + 64)
    ()

type scan_class = {
  mu : float;
  fresh : unit -> Core.Variance_growth.t;
  reference : Core.Variance_growth.t;  (** one warm table per class... *)
  reference_truncated : Core.Variance_growth.t;  (** ...and truncation *)
  bounded : bool;  (** whether the tail bounds the later lags *)
}

(* Every CAC class, mpeg's [`Unknown] tail included, and a tabulated
   ACF as [Core.Spectrum] scans one. *)
let scan_classes =
  lazy
    (let of_class name =
       let p = (Cac.Source_class.of_name_exn name).Cac.Source_class.process in
       ( p.Traffic.Process.mean,
         (fun () ->
           Core.Variance_growth.create ~acf:p.Traffic.Process.acf
             ~variance:p.Traffic.Process.variance ~tail:p.Traffic.Process.tail),
         match p.Traffic.Process.tail with `Unknown -> false | _ -> true )
     in
     let tabulated =
       let z = (Traffic.Models.z ~a:0.9).Traffic.Models.process in
       let acf = Traffic.Process.acf_array z ~max_lag:8192 in
       ( z.Traffic.Process.mean,
         (fun () ->
           Core.Variance_growth.of_acf_array ~acf ~variance:z.Traffic.Process.variance),
         true )
     in
     Array.map
       (fun (mu, fresh, bounded) ->
         let reference = fresh () in
         {
           mu;
           fresh;
           reference;
           reference_truncated = Core.Variance_growth.truncated reference ~at:10;
           bounded;
         })
       (Array.of_list (List.map of_class Cac.Source_class.names @ [ tabulated ])))

let scan_case_gen =
  QCheck2.Gen.(
    tup4
      (* the classes, then the tabulated ACF *)
      (int_range 0 (List.length Cac.Source_class.names))
      bool (float_range 0.0 1.0) (float_range 0.0 5000.0))

let scan_matches_reference (cls, truncate, u, b) =
  let s = (Lazy.force scan_classes).(cls) in
  let mu = s.mu in
  let c = mu +. 20.0 +. (u *. ((2.0 *. mu) -. 20.0)) in
  let vg, ref_vg =
    if truncate then (Core.Variance_growth.truncated (s.fresh ()) ~at:10, s.reference_truncated)
    else (s.fresh (), s.reference)
  in
  let got = Core.Cts.analyze vg ~mu ~c ~b in
  let want = reference_scan ~margin:8 ref_vg ~mu ~c ~b in
  got.Core.Cts.m_star = want.Numerics.Optimize.argmin
  && Int64.equal
       (Int64.bits_of_float got.Core.Cts.rate)
       (Int64.bits_of_float want.Numerics.Optimize.minimum)
  &&
  if s.bounded then got.Core.Cts.scanned_up_to <= want.Numerics.Optimize.scanned_up_to
  else got.Core.Cts.scanned_up_to = want.Numerics.Optimize.scanned_up_to

let test_cts_late_dip () =
  (* No correlation except 0.9 at lags 200-399.  The objective's true
     minimum lies past the block, at m = 602; the heuristic stops at
     m = 105 with its minimum at m = 5, a rate 6x too high and so a
     loss estimate that fails open.  The table's suffix maximum keeps
     the certificate from stopping before lag 400. *)
  let acf =
    Array.init 400 (fun k -> if k = 0 then 1.0 else if k >= 200 then 0.9 else 0.0)
  in
  let table () = Core.Variance_growth.of_acf_array ~acf ~variance:5000.0 in
  let a = Core.Cts.analyze (table ()) ~mu:500.0 ~c:520.0 ~b:100.0 in
  check_int "certified m*" 602 a.Core.Cts.m_star;
  check_close_rel ~tol:1e-5 "certified I(c,b)" 0.134591 a.Core.Cts.rate;
  check_int "certified scan length" 602 a.Core.Cts.scanned_up_to;
  let h = reference_scan ~margin:8 (table ()) ~mu:500.0 ~c:520.0 ~b:100.0 in
  check_int "heuristic m*" 5 h.Numerics.Optimize.argmin;
  check_close_rel ~tol:1e-12 "heuristic I(c,b)" 0.8 h.Numerics.Optimize.minimum;
  check_int "heuristic scan length" 105 h.Numerics.Optimize.scanned_up_to

let z975_process () = (Traffic.Models.z ~a:0.975).Traffic.Models.process

let test_cts_scan_acf_calls () =
  (* The scan fills the table exactly as far as it looks: lags 1 ..
     scanned_up_to - 1, each once, and none ahead. *)
  let z = z975_process () in
  let calls = ref 0 in
  let vg =
    Core.Variance_growth.create ~variance:z.Traffic.Process.variance
      ~tail:z.Traffic.Process.tail ~acf:(fun k ->
        incr calls;
        z.Traffic.Process.acf k)
  in
  let a = Core.Cts.analyze vg ~mu:500.0 ~c:520.0 ~b:2000.0 in
  check_int "scan length (Z^0.975, c = 520, b = 2000)" 311
    a.Core.Cts.scanned_up_to;
  check_int "ACF calls = scanned_up_to - 1" (a.Core.Cts.scanned_up_to - 1) !calls;
  ignore (Core.Cts.analyze vg ~mu:500.0 ~c:520.0 ~b:2000.0);
  check_int "a warm table calls the ACF no more" 310 !calls

let test_cts_scan_allocation () =
  (* Per-step allocation would cost ~6 words a step; what is left is
     the result record and the scan's telemetry.  The heuristic scan
     (the same ACF declared [`Unknown]) spans thousands of steps, the
     certified one hundreds. *)
  let z = z975_process () in
  let warm_scan tail =
    let vg =
      Core.Variance_growth.create ~acf:z.Traffic.Process.acf
        ~variance:z.Traffic.Process.variance ~tail
    in
    ignore (Core.Cts.analyze vg ~mu:500.0 ~c:520.0 ~b:2000.0);
    let before = Gc.minor_words () in
    let a = Core.Cts.analyze vg ~mu:500.0 ~c:520.0 ~b:2000.0 in
    (a.Core.Cts.scanned_up_to, Gc.minor_words () -. before)
  in
  List.iter
    (fun (what, tail, steps) ->
      let scanned, words = warm_scan tail in
      check_int ("same " ^ what ^ " scan") steps scanned;
      check_true
        (Printf.sprintf "warm %d-step %s scan allocates %.0f minor words (< 200)"
           steps what words)
        (words < 200.0))
    [ ("heuristic", `Unknown, 10_708); ("certified", z.Traffic.Process.tail, 311) ]

(* {2 Declared tails, on the computed lags}

   [(tail_bound vg).(k-1)] must be at least every computed lag from k
   through [last], for each k up to [upto + 1]. *)
let check_tail_bound what vg ~acf ~upto ~last =
  Core.Variance_growth.ensure vg upto;
  let bound = Core.Variance_growth.tail_bound vg in
  let later = ref neg_infinity in
  for i = last downto 1 do
    let r = acf i in
    if r > !later then later := r;
    if i - 1 <= upto && not (bound.(i - 1) >= !later) then
      Alcotest.failf "%s: bound after lag %d is %.17g, below a later lag's %.17g" what
        (i - 1) bound.(i - 1) !later
  done

let test_decreasing_tails () =
  (* FBNDP's ACF rises again by a rounding step from lag 81,573 (V^v),
     86,682 (Z^a) and 87,226 (L); a ceiling past those fails here. *)
  let ceiling = Core.Variance_growth.monotone_ceiling in
  let fbndp alpha =
    let p =
      Traffic.Fbndp.process ~ts:Traffic.Models.ts
        (Traffic.Fbndp.of_moments ~alpha ~mean:250.0 ~variance:2500.0 ~m:15
           ~ts:Traffic.Models.ts)
    in
    (Printf.sprintf "FBNDP(alpha = %g)" alpha, p)
  in
  List.iter
    (fun (what, (p : Traffic.Process.t)) ->
      let vg =
        Core.Variance_growth.create ~acf:p.Traffic.Process.acf
          ~variance:p.Traffic.Process.variance ~tail:p.Traffic.Process.tail
      in
      check_tail_bound what vg ~acf:p.Traffic.Process.acf ~upto:(ceiling - 1)
        ~last:2_000_000;
      Core.Variance_growth.ensure vg ceiling;
      check_true (what ^ ": no bound from the ceiling on")
        (Float.is_nan (Core.Variance_growth.tail_bound vg).(ceiling)))
    ([
       ("Z^0.975", z975_process ());
       ("V^1.5", (Traffic.Models.v ~v:1.5).Traffic.Models.process);
       ("L", Traffic.Models.l ());
     ]
    @ List.map fbndp [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]);
  List.iter
    (fun alpha ->
      let _, p = fbndp alpha in
      check_true
        (Printf.sprintf "FBNDP(alpha = %g) declares no tail" alpha)
        (match p.Traffic.Process.tail with `Unknown -> true | _ -> false))
    [ 0.1; 0.95 ]

let test_recurrent_tails () =
  List.iter
    (fun p ->
      let s = Traffic.Models.s ~a:0.975 ~p in
      check_true
        (Printf.sprintf "DAR(%d) declares `Recurrent %d" p p)
        (match s.Traffic.Process.tail with `Recurrent q -> q = p | _ -> false);
      check_tail_bound (Printf.sprintf "DAR(%d)" p)
        (Core.Variance_growth.create ~acf:s.Traffic.Process.acf
           ~variance:s.Traffic.Process.variance ~tail:s.Traffic.Process.tail)
        ~acf:s.Traffic.Process.acf ~upto:65_535 ~last:200_000)
    [ 2; 3 ]

(* The certificate's floor is a lower bound on every later objective
   value: random non-negative tables (so V(m) > 0) with their suffix
   maximum as the tail, random k, every m in (k, k + 4096].  The
   1e-12 headroom is rounding, well inside the scan's 1e-9. *)
let certificate_gen =
  QCheck2.Gen.(
    tup5 (int_range 0 1_000_000) (int_range 1 600) (int_range 1 700)
      (float_range 1.0 500.0) (float_range 0.0 2000.0))

let certificate_is_a_floor (seed, n, k, spare, b) =
  let rng = Random.State.make [| seed |] in
  let density = Random.State.float rng 1.0 in
  let acf =
    Array.init n (fun i ->
        if i = 0 then 1.0
        else if Random.State.float rng 1.0 < density then Random.State.float rng 1.0
        else 0.0)
  in
  let vg = Core.Variance_growth.of_acf_array ~acf ~variance:5000.0 in
  let mu = 500.0 and c = 500.0 +. spare in
  let floor = Core.Cts.certificate vg ~mu ~c ~b k in
  let ok = ref true in
  for m = k + 1 to k + 4096 do
    if floor > Core.Cts.objective vg ~mu ~c ~b m *. (1.0 +. 1e-12) then ok := false
  done;
  !ok

let m_star_count labels =
  match Obs.Registry.histogram_snapshot ~labels "cts.m_star" with
  | Some h -> h.Obs.Registry.count
  | None -> 0

let labelled_m_star_counts () =
  List.filter_map
    (fun (((name, labels) : Obs.Registry.key), h) ->
      if String.equal name "cts.m_star" && not (Obs.Labels.is_empty labels) then
        Some (Obs.Labels.to_string labels, h.Obs.Registry.count)
      else None)
    (Obs.Registry.snapshot ()).Obs.Registry.histograms

let test_bahadur_rao_buffer_series () =
  (* [evaluate] observes m* under the link's total buffer b n, so a fill
     at b = B/n for n = 1..30 lands in one series per B: %.4g absorbs
     the last-ulp drift of (B/n) n.  The second B runs on a spawned
     domain, which resolves its own handle. *)
  let here = 1234.5 and elsewhere = 98765.4321 in
  let before = labelled_m_star_counts () in
  let fill total =
    let vg = ar1_vg 0.8 5000.0 in
    for n = 1 to 30 do
      let b = total /. float_of_int n in
      ignore (Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b ~n)
    done
  in
  fill here;
  Domain.join (Domain.spawn (fun () -> fill elsewhere));
  List.iter
    (fun total ->
      let label = Printf.sprintf "%.4g" total in
      check_int
        (Printf.sprintf "30 observations under buffer_cells=%s" label)
        30
        (m_star_count (Obs.Labels.make [ ("buffer_cells", label) ])))
    [ here; elsewhere ];
  let after = labelled_m_star_counts () in
  let grown =
    List.filter
      (fun (l, n) ->
        match List.assoc_opt l before with Some n0 -> n <> n0 | None -> true)
      after
  in
  check_int "no other buffer_cells series moved" 2 (List.length grown)

let test_bahadur_rao_vs_large_n () =
  let vg = ar1_vg 0.82 5000.0 in
  let br = Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b:134.5 ~n:30 in
  let ln = Core.Large_n.evaluate vg ~mu:500.0 ~c:538.0 ~b:134.5 ~n:30 in
  (* B-R = Large-N * correction, correction = -0.5 log10(4 pi N I). *)
  let expected_gap =
    0.5 *. log10 (4.0 *. 4.0 *. atan 1.0 *. 30.0 *. br.Core.Bahadur_rao.cts.Core.Cts.rate)
  in
  check_close ~tol:1e-9 "B-R refines Large-N by the log prefactor"
    (ln.Core.Large_n.log10_bop -. expected_gap)
    br.Core.Bahadur_rao.log10_bop;
  check_true "B-R below Large-N"
    (br.Core.Bahadur_rao.log10_bop < ln.Core.Large_n.log10_bop)

let test_bop_decreasing_in_buffer () =
  let vg = ar1_vg 0.9 5000.0 in
  let prev = ref 0.0 in
  List.iter
    (fun b ->
      let r = Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b ~n:30 in
      check_true "log BOP decreasing" (r.Core.Bahadur_rao.log10_bop < !prev);
      prev := r.Core.Bahadur_rao.log10_bop)
    [ 10.0; 50.0; 100.0; 200.0 ]

let test_bop_decreasing_in_capacity () =
  let vg = ar1_vg 0.9 5000.0 in
  let prev = ref 0.0 in
  List.iter
    (fun c ->
      let r = Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c ~b:100.0 ~n:30 in
      check_true "log BOP decreasing in c" (r.Core.Bahadur_rao.log10_bop < !prev);
      prev := r.Core.Bahadur_rao.log10_bop)
    [ 520.0; 538.0; 560.0; 600.0 ]

let test_evaluate_total () =
  let vg = ar1_vg 0.8 5000.0 in
  let a = Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b:134.5 ~n:30 in
  let b =
    Core.Bahadur_rao.evaluate_total vg ~mu:500.0
      ~total_capacity:(30.0 *. 538.0) ~total_buffer:(30.0 *. 134.5) ~n:30
  in
  check_close ~tol:1e-12 "total and per-source forms agree"
    a.Core.Bahadur_rao.log10_bop b.Core.Bahadur_rao.log10_bop

let test_weibull_kappa () =
  check_close ~tol:1e-12 "kappa(1/2)" 0.5 (Core.Weibull_lrd.kappa 0.5);
  (* kappa(h) = kappa(1-h) *)
  check_close ~tol:1e-12 "kappa symmetric"
    (Core.Weibull_lrd.kappa 0.3)
    (Core.Weibull_lrd.kappa 0.7)

let test_weibull_vs_br_fgn () =
  (* On pure fGn the closed form and the numeric rate agree closely for
     buffers with large m*. *)
  let h = 0.86 in
  let src = { Core.Weibull_lrd.h; g = 1.0; mu = 500.0; variance = 5000.0 } in
  let acf k = if k = 0 then 1.0 else Traffic.Fgn.acf ~h k in
  let vg = Core.Variance_growth.create ~variance:5000.0 ~tail:`Unknown ~acf in
  List.iter
    (fun b ->
      let closed = Core.Weibull_lrd.rate src ~c:538.0 ~b in
      let numeric = (Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b).Core.Cts.rate in
      check_close_rel ~tol:0.05
        (Printf.sprintf "rates agree at b = %g" b)
        closed numeric)
    [ 200.0; 500.0; 1000.0 ]

let test_weibull_reduces_to_loglinear () =
  (* H -> 1/2 (and g = 1): J is linear in b, i.e. log-linear BOP, the
     effective-bandwidth regime. *)
  let src = { Core.Weibull_lrd.h = 0.5; g = 1.0; mu = 500.0; variance = 5000.0 } in
  let j1 = Core.Weibull_lrd.j src ~c:538.0 ~b:100.0 ~n:30 in
  let j2 = Core.Weibull_lrd.j src ~c:538.0 ~b:200.0 ~n:30 in
  check_close_rel ~tol:1e-9 "J doubles with b at H = 1/2" 2.0 (j2 /. j1)

let test_weibull_subexponential () =
  (* For H > 1/2, doubling the buffer multiplies J by 2^(2-2H) < 2 —
     the Weibull (sub-exponential) slowdown. *)
  let src = { Core.Weibull_lrd.h = 0.9; g = 1.0; mu = 500.0; variance = 5000.0 } in
  let j1 = Core.Weibull_lrd.j src ~c:538.0 ~b:100.0 ~n:30 in
  let j2 = Core.Weibull_lrd.j src ~c:538.0 ~b:200.0 ~n:30 in
  check_close_rel ~tol:1e-9 "Weibull exponent 2 - 2H"
    (2.0 ** 0.2)
    (j2 /. j1)

let test_admission_monotone () =
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let vg =
    Core.Variance_growth.create ~acf:z.Traffic.Process.acf
      ~variance:z.Traffic.Process.variance ~tail:z.Traffic.Process.tail
  in
  let capacity = 16140.0 in
  let n_strict =
    Core.Admission.max_admissible vg ~mu:500.0 ~total_capacity:capacity
      ~total_buffer:4035.0 ~target_clr:1e-9
  in
  let n_loose =
    Core.Admission.max_admissible vg ~mu:500.0 ~total_capacity:capacity
      ~total_buffer:4035.0 ~target_clr:1e-4
  in
  check_true "looser target admits at least as many" (n_loose >= n_strict);
  check_true "something admitted" (n_strict >= 1);
  check_true "stability respected"
    (float_of_int n_loose *. 500.0 < capacity)

let test_admission_feasibility_boundary () =
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let vg =
    Core.Variance_growth.create ~acf:z.Traffic.Process.acf
      ~variance:z.Traffic.Process.variance ~tail:z.Traffic.Process.tail
  in
  let capacity = 16140.0 and buffer = 4035.0 and target = 1e-6 in
  let n =
    Core.Admission.max_admissible vg ~mu:500.0 ~total_capacity:capacity
      ~total_buffer:buffer ~target_clr:target
  in
  check_true "admitted count positive" (n >= 1);
  (* n is feasible... *)
  let bop n =
    (Core.Bahadur_rao.evaluate_total vg ~mu:500.0 ~total_capacity:capacity
       ~total_buffer:buffer ~n)
      .Core.Bahadur_rao.log10_bop
  in
  check_true "n feasible" (bop n <= log10 target);
  (* ...and n+1 is not (or hits the stability ceiling). *)
  let next = n + 1 in
  if float_of_int next *. 500.0 < capacity then
    check_true "n+1 infeasible" (bop next > log10 target)

let test_required_capacity () =
  let vg = ar1_vg 0.82 5000.0 in
  let c =
    Core.Admission.required_capacity vg ~mu:500.0 ~n:30 ~total_buffer:4035.0
      ~target_clr:1e-6
  in
  check_true "above mean load" (c > 15000.0);
  let per_source =
    Core.Admission.effective_bandwidth_per_source vg ~mu:500.0 ~n:30
      ~total_buffer:4035.0 ~target_clr:1e-6
  in
  check_close_rel ~tol:1e-9 "per-source consistency" (c /. 30.0) per_source;
  check_true "effective bandwidth above mean" (per_source > 500.0);
  (* Verify the returned capacity indeed meets the target. *)
  let r =
    Core.Bahadur_rao.evaluate_total vg ~mu:500.0 ~total_capacity:c
      ~total_buffer:4035.0 ~n:30
  in
  check_true "capacity meets CLR target" (r.Core.Bahadur_rao.log10_bop <= -6.0)

(* {2 The effective-bandwidth search against its reference}

   [Admission.required_capacity] replays the doubling-and-bisection
   that [Admission.reference_capacity_search] runs against the kernel,
   evaluating only near the threshold.  With the kernel's margin as the
   oracle the two must agree to the bit. *)

let bits = Int64.bits_of_float
let replay_fallbacks () = Obs.Registry.counter_value "admission.replay_fallbacks"

type eb_case = { cls : string; link : float; msec : float; clr : float; n : int }

let eb_case_gen =
  QCheck2.Gen.(
    map
      (fun (cls, link, msec, exponent, n) -> { cls; link; msec; clr = 10.0 ** -.exponent; n })
      (tup5
         (oneofl [ "z0.7"; "z0.975"; "z0.99"; "l"; "dar1"; "dar3"; "mpeg" ])
         (oneofl [ 4035.0; 16140.0; 64560.0 ])
         (frequency [ (1, pure 0.0); (9, float_range 0.0 120.0) ])
         (float_range 3.0 12.0) (int_range 1 40)))

let print_eb_case c =
  Printf.sprintf "%s on %g cells/frame, %g ms, CLR %g, n = %d" c.cls c.link c.msec c.clr c.n

let test_required_capacity_matches_reference () =
  let low = ref 0 and fallbacks = replay_fallbacks () in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 1996 |])
    (QCheck2.Test.make ~count:300 ~name:"required_capacity = reference"
       ~print:print_eb_case eb_case_gen (fun c ->
         let cls = Cac.Source_class.of_name_exn c.cls in
         let vg = cls.Cac.Source_class.vg and mu = Cac.Source_class.mean cls in
         let total_buffer =
           Queueing.Units.buffer_cells_of_msec ~msec:c.msec
             ~service_cells_per_frame:c.link ~ts:Traffic.Models.ts
         in
         let mean_load = float_of_int c.n *. mu in
         let want =
           Core.Admission.reference_capacity_search ~mean_load
             ~margin:
               (Core.Admission.capacity_margin vg ~mu ~n:c.n ~total_buffer
                  ~target_clr:c.clr)
         in
         let got =
           Core.Admission.required_capacity vg ~mu ~n:c.n ~total_buffer ~target_clr:c.clr
         in
         if want <= mean_load *. 1.01 then incr low;
         Int64.equal (bits want) (bits got)));
  (* Below 1.01x the mean load the top-down bracket ends at the
     reference's first point and the replay evaluates every midpoint. *)
  check_true
    (Printf.sprintf "draw includes thresholds at or below 1.01x mean load (%d)" !low)
    (!low >= 1);
  check_int "no replay fallbacks" 0 (replay_fallbacks () - fallbacks)

(* Synthetic monotone margins: a smooth one, and a staircase with a
   plateau at exactly 0 (admissible), where Brent stops at the first
   zero it meets; both infinite at and below the mean load, like the
   kernel's. *)
let synthetic_matches_reference (load_exp, ratio_exp, scale_exp, staircase) =
  let mean_load = 10.0 ** load_exp in
  let threshold = mean_load *. (1.0 +. (10.0 ** ratio_exp)) in
  let scale = 10.0 ** scale_exp in
  let margin c =
    if c <= mean_load then infinity
    else if staircase then Float.of_int (truncate ((threshold -. c) *. scale))
    else scale *. log (threshold /. c)
  in
  let got = Core.Admission.capacity_search ~mean_load ~margin in
  let want = Core.Admission.reference_capacity_search ~mean_load ~margin in
  Int64.equal (bits want) (bits got) && margin got <= 0.0

let test_capacity_search_synthetic () =
  let fallbacks = replay_fallbacks () in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 1996 |])
    (QCheck2.Test.make ~count:2000 ~name:"capacity_search = reference (synthetic)"
       ~print:QCheck2.Print.(tup4 float float float bool)
       QCheck2.Gen.(
         tup4 (float_range 0.0 5.0) (float_range (-4.0) 2.0) (float_range (-2.0) 3.0) bool)
       synthetic_matches_reference);
  (* Margins near 1e154 overflow Brent's interpolation into a NaN
     iterate, which must only end the narrowing; near 1e300 the ends'
     product overflows and Brent is skipped. *)
  List.iter
    (fun scale_exp ->
      check_true
        (Printf.sprintf "margins of magnitude 1e%g" scale_exp)
        (synthetic_matches_reference (3.0, log10 0.2345678, scale_exp, false)))
    [ 153.0; 154.0; 155.0; 300.0 ];
  check_int "no replay fallbacks" 0 (replay_fallbacks () - fallbacks)

(* A margin admissible on [1254.999, 1255.001] and from 1300 up.  The
   top-down bracket passes at 1255 and fails at 1127.5, and Brent narrows
   it around 1254.999.  The replay then infers that the next bisection
   point above, 1255.0024, is admissible, but it lies in the hole. *)
let test_capacity_search_fallback () =
  let mean_load = 1000.0 in
  let margin c =
    if c < 1254.999 then 1.0 else if c <= 1255.001 then -1.0 else if c < 1300.0 then 1.0 else -1.0
  in
  let fallbacks = replay_fallbacks () in
  let got = Core.Admission.capacity_search ~mean_load ~margin in
  check_int "fallback taken and counted" 1 (replay_fallbacks () - fallbacks);
  let want = Core.Admission.reference_capacity_search ~mean_load ~margin in
  check_bits "the reference's answer" want got;
  check_true "above the hole" (got >= 1300.0)

let test_capacity_search_non_finite () =
  let raises name f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s: returned instead of raising Non_finite" name
    | exception Resilience.Guard.Non_finite _ -> ()
  in
  let searches =
    [
      ("replay", Core.Admission.capacity_search);
      ("reference", Core.Admission.reference_capacity_search);
    ]
  in
  List.iter
    (fun (name, search) ->
      raises (name ^ ": NaN margin") (fun () ->
          search ~mean_load:500.0 ~margin:(fun _ -> Float.nan));
      raises (name ^ ": NaN above the threshold") (fun () ->
          search ~mean_load:500.0 ~margin:(fun c -> if c < 700.0 then 1.0 else Float.nan));
      (* Never admissible: the doubling stops before infinity. *)
      raises (name ^ ": no admissible capacity") (fun () ->
          search ~mean_load:500.0 ~margin:(fun _ -> 1.0)))
    searches

let suite =
  [
    case "V(m) matches naive evaluation" test_variance_growth_vs_naive;
    case "V(1) = sigma^2" test_variance_growth_v1;
    case "V(m) for iid" test_variance_growth_iid;
    case "V(m) LRD asymptote m^2H" test_variance_growth_lrd_asymptote;
    case "truncated ACF" test_truncated;
    case "CTS at zero buffer" test_cts_zero_buffer;
    case "CTS monotone in buffer" test_cts_monotone_in_buffer;
    case "CTS AR(1) slope" test_cts_ar1_constant;
    case "CTS LRD closed form" test_cts_lrd_constant;
    case "CTS requires c > mu" test_cts_requires_stability;
    case "truncating ACF beyond m* is free" test_truncation_beyond_cts_is_free;
    case "B-R vs Large-N relation" test_bahadur_rao_vs_large_n;
    case "BOP decreasing in buffer" test_bop_decreasing_in_buffer;
    case "BOP decreasing in capacity" test_bop_decreasing_in_capacity;
    case "total vs per-source forms" test_evaluate_total;
    case "kappa" test_weibull_kappa;
    case "Weibull vs B-R on fGn" test_weibull_vs_br_fgn;
    case "Weibull reduces to log-linear at H=1/2" test_weibull_reduces_to_loglinear;
    case "Weibull sub-exponential scaling" test_weibull_subexponential;
    case "admission monotone in target" test_admission_monotone;
    case "admission boundary exact" test_admission_feasibility_boundary;
    case "required capacity" test_required_capacity;
    case "required capacity bit-equal to the reference bisection"
      test_required_capacity_matches_reference;
    case "capacity search on synthetic monotone margins" test_capacity_search_synthetic;
    case "capacity search falls back on a non-monotone margin"
      test_capacity_search_fallback;
    case "capacity search raises on NaN and on no admissible capacity"
      test_capacity_search_non_finite;
    qcheck ~count:50 "CTS finite and positive rate"
      QCheck2.Gen.(pair (float_range 0.1 0.95) (float_range 0.0 500.0))
      (fun (rho, b) ->
        let vg = ar1_vg rho 5000.0 in
        let a = Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b in
        a.Core.Cts.m_star >= 1 && a.Core.Cts.rate > 0.0);
    case "CTS scan: ACF called once per lag scanned" test_cts_scan_acf_calls;
    case "CTS scan: no allocation per step" test_cts_scan_allocation;
    case "CTS scan: a dip at long lags" test_cts_late_dip;
    slow_case "tails: `Decreasing holds on the computed lags" test_decreasing_tails;
    case "tails: `Recurrent holds on the computed lags" test_recurrent_tails;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1996 |])
      (QCheck2.Test.make ~count:200 ~name:"CTS certificate bounds the later objective"
         ~print:QCheck2.Print.(tup5 int int int float float)
         certificate_gen certificate_is_a_floor);
    case "B-R: m* series per total buffer" test_bahadur_rao_buffer_series;
    (* A fixed seed, so every run checks the same 1000 cases. *)
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1996 |])
      (QCheck2.Test.make ~count:1000 ~name:"CTS scan bit-identical to integer_argmin"
         ~print:QCheck2.Print.(tup4 int bool float float)
         scan_case_gen scan_matches_reference);
    qcheck ~count:30 "stronger correlations inflate V(m)"
      QCheck2.Gen.(int_range 2 500)
      (fun m ->
        let weak = ar1_vg 0.3 100.0 and strong = ar1_vg 0.9 100.0 in
        Core.Variance_growth.v strong m > Core.Variance_growth.v weak m);
  ]
