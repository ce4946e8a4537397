type analysis = { m_star : int; rate : float; scanned_up_to : int }

(* Telemetry: the infimum search behind the Bahadur–Rao rate function
   is the numeric hot path of the whole admission stack, so its scan
   lengths and minimisers are exported through the Obs registry. *)
let c_searches = Obs.Registry.Counter.v "bahadur_rao.infimum_searches"
let c_iterations = Obs.Registry.Counter.v "bahadur_rao.infimum_iterations"
let h_m_star = Obs.Registry.Histogram.v ~lo:0.0 ~hi:5000.0 ~bins:50 "cts.m_star"

let objective vg ~mu ~c ~b m =
  assert (m >= 1);
  let drift = b +. (float_of_int m *. (c -. mu)) in
  drift *. drift /. (2.0 *. Variance_growth.v vg m)

(* The scan's hard cap, as in [Numerics.Optimize.integer_argmin]. *)
let hard_cap = 2_000_000

let analyze ?(margin = 8) vg ~mu ~c ~b =
  if not (c > mu) then
    invalid_arg
      (Printf.sprintf "Cts.analyze: need c > mu (got c = %g, mu = %g)" c mu);
  if not (b >= 0.0) then invalid_arg "Cts.analyze: negative buffer";
  (* One loop, no closure and no boxed float per step: V(m) and the
     objective are computed here from the prefix sums, in the operation
     order of [Variance_growth.v] and [objective], so every result is
     bit-identical to scanning [objective] with
     [Numerics.Optimize.integer_argmin] (the reference the tests hold
     this loop to).  The table grows one lag per step, exactly as far
     as the scan reaches. *)
  let sigma2 = Variance_growth.variance vg and spare = c -. mu in
  let p = ref (Variance_growth.prefix_r vg)
  and q = ref (Variance_growth.prefix_ir vg) in
  let best = ref 0.0 and m_star = ref 1 in
  let m = ref 0 and stopped = ref false in
  while (not !stopped) && !m < hard_cap do
    incr m;
    let k = !m in
    Variance_growth.ensure vg (k - 1);
    if k - 1 >= Array.length !p then begin
      p := Variance_growth.prefix_r vg;
      q := Variance_growth.prefix_ir vg
    end;
    let mf = float_of_int k in
    let drift = b +. (mf *. spare) in
    let weighted = (mf *. !p.(k - 1)) -. !q.(k - 1) in
    let value = drift *. drift /. (2.0 *. (sigma2 *. (mf +. (2.0 *. weighted)))) in
    if k = 1 || value < !best then begin
      best := value;
      m_star := k
    end;
    (* The objective diverges whenever V(m) = o(m^2), so it always
       eventually doubles its minimum; requiring in addition that we
       are well past the running argmin guards against shallow local
       wiggles near the minimum. *)
    if value > 2.0 *. !best && k > (margin * !m_star) + 64 then stopped := true
  done;
  let m_star = !m_star and scanned_up_to = !m in
  Obs.Registry.Counter.incr c_searches;
  Obs.Registry.Counter.incr ~by:scanned_up_to c_iterations;
  Obs.Registry.Histogram.observe h_m_star (float_of_int m_star);
  { m_star; rate = !best; scanned_up_to }

let curve ?margin vg ~mu ~c ~buffers =
  Array.map (fun b -> (b, analyze ?margin vg ~mu ~c ~b)) buffers

let lrd_closed_form ~h ~mu ~c ~b =
  assert (h > 0.0 && h < 1.0 && c > mu && b >= 0.0);
  h *. b /. ((1.0 -. h) *. (c -. mu))
