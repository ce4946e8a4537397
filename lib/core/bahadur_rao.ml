type result = {
  log10_bop : float;
  bop : float;
  cts : Cts.analysis;
}

let log10_e = log10 (exp 1.0)
let pi = 4.0 *. atan 1.0

(* Handles, not keyed calls: this path runs per admission decision and
   per figure point, so the per-call cost must stay at a cached-cell
   increment. *)
let c_evaluations = Obs.Registry.Counter.v "bahadur_rao.evaluations"

let h_eval_us =
  Obs.Registry.Histogram.v ~lo:0.0 ~hi:2000.0 ~bins:100 "bahadur_rao.eval_us"

(* Per-buffer m* series for the heatmap view.  Labelling by the
   per-source buffer [b] would explode cardinality (b = B/n moves with
   every n during a fill); the *total* buffer [b*n] is what a link
   scenario fixes, so the label set stays one value per configured
   link/scenario.  %.4g keeps float formatting stable across the
   b*n = (B/n)*n round trip.

   Formatting that label and hashing it on every call would cost
   several times the rest of [evaluate]'s telemetry, so each domain
   binds one handle per total buffer on first use.  The table is keyed
   by the float's bits, so a value always gets the series it formats to
   (0. and -0. format differently but compare equal). *)
let m_star_series : (int64, Obs.Registry.Histogram.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let m_star_series_of ~b ~n =
  let total = b *. float_of_int n in
  let key = Int64.bits_of_float total in
  let series = Domain.DLS.get m_star_series in
  match Hashtbl.find_opt series key with
  | Some h -> h
  | None ->
      let labels =
        Obs.Labels.make [ ("buffer_cells", Printf.sprintf "%.4g" total) ]
      in
      let h = Obs.Registry.Histogram.v ~labels "cts.m_star" in
      Hashtbl.replace series key h;
      h

let evaluate_bound vg ~mu ~c ~b ~n =
  assert (n >= 1);
  let t0 = Obs.Clock.monotonic_ns () in
  let cts = Cts.analyze vg ~mu ~c ~b in
  Obs.Registry.Counter.incr c_evaluations;
  Obs.Registry.Histogram.observe h_eval_us
    (Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0));
  Obs.Registry.Histogram.observe (m_star_series_of ~b ~n)
    (float_of_int cts.Cts.m_star);
  let nf = float_of_int n in
  (* Fault-injection hook: when armed (chaos tests, --fault-spec) this
     point can raise, stall, or corrupt the exponent to NaN — callers
     above the engine boundary must contain all three (see
     Resilience.Guard). *)
  let exponent_nats =
    Resilience.Fault.inject_float "bahadur_rao.evaluate" (fun () ->
        (-.nf *. cts.Cts.rate) -. (0.5 *. log (4.0 *. pi *. nf *. cts.Cts.rate)))
  in
  let log10_bop = exponent_nats *. log10_e in
  { log10_bop; bop = exp exponent_nats; cts }

(* A scan cut off by the step cap has not found the minimum: its rate
   may be overstated, which would understate the loss.  Fail closed
   through the same path as a NaN. *)
let evaluate vg ~mu ~c ~b ~n =
  let r = evaluate_bound vg ~mu ~c ~b ~n in
  if r.cts.Cts.capped then raise (Resilience.Guard.Non_finite "core.cts.capped");
  r

let evaluate_total vg ~mu ~total_capacity ~total_buffer ~n =
  assert (n >= 1);
  let nf = float_of_int n in
  evaluate vg ~mu ~c:(total_capacity /. nf) ~b:(total_buffer /. nf) ~n

let curve vg ~mu ~c ~n ~buffers =
  Array.map (fun b -> (b, evaluate vg ~mu ~c ~b ~n)) buffers
