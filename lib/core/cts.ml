type analysis = { m_star : int; rate : float; scanned_up_to : int; capped : bool }

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

(* The heuristic stop, for tables whose tail gives no bound: the
   objective at twice its running minimum, past [margin * argmin + 64]. *)
let margin = 8

(* Relative headroom the certificate keeps over the running minimum,
   for the rounding of the prefix sums the later steps would read. *)
let slack = 1e-9

(* The certificate.  After step k, with P = r(1) + ... + r(k-1) and
   every later lag at most r_bar >= 0, for m = k + x (x >= 1)
     V(m) / sigma^2 <= v_k + beta x + r_bar x^2,  beta = 1 + 2P + r_bar,
   where v_k = V(k) / sigma^2, so the objective is at least
     L(x) = (drift + spare x)^2 / (2 sigma^2 (v_k + beta x + r_bar x^2)).
   When that quadratic is increasing from x = 1 it stays positive, and
   L' = 0 reduces to a linear equation in x: the infimum of L over
   x >= 1 is the least of L(1), L at the one stationary point x0, and
   the limit spare^2 / (2 sigma^2 r_bar).  [neg_infinity] when the
   quadratic is not increasing (a negatively correlated table) or
   r_bar is nan.  Inlined into the scan, so its floats stay unboxed. *)
let[@inline] floor_after ~sigma2 ~spare ~drift ~v_k ~p_k ~r_bar =
  let beta = 1.0 +. (2.0 *. p_k) +. r_bar in
  let v_next = v_k +. beta +. r_bar in
  if not ((2.0 *. r_bar) +. beta >= 0.0 && v_next > 0.0) then neg_infinity
  else begin
    let next = drift +. spare in
    let at_next = next *. next /. (2.0 *. (sigma2 *. v_next)) in
    let limit = spare *. spare /. (2.0 *. (sigma2 *. r_bar)) in
    let lower = if limit < at_next then limit else at_next in
    let x0 =
      ((drift *. beta) -. (2.0 *. spare *. v_k))
      /. ((spare *. beta) -. (2.0 *. r_bar *. drift))
    in
    if x0 > 1.0 && x0 < infinity then begin
      let at = drift +. (x0 *. spare) in
      let at_x0 =
        at *. at /. (2.0 *. (sigma2 *. (v_k +. (x0 *. (beta +. (r_bar *. x0))))))
      in
      if at_x0 < lower then at_x0 else lower
    end
    else lower
  end

let check_args ~mu ~c ~b =
  if not (c > mu) then
    invalid_arg
      (Printf.sprintf "Cts.analyze: need c > mu (got c = %g, mu = %g)" c mu);
  if not (b >= 0.0) then invalid_arg "Cts.analyze: negative buffer"

let certificate vg ~mu ~c ~b k =
  check_args ~mu ~c ~b;
  if k < 1 then invalid_arg "Cts.certificate: need k >= 1";
  Variance_growth.ensure vg (k - 1);
  let mf = float_of_int k and spare = c -. mu in
  let p_k = (Variance_growth.prefix_r vg).(k - 1) in
  let weighted = (mf *. p_k) -. (Variance_growth.prefix_ir vg).(k - 1) in
  let r_bar = (Variance_growth.tail_bound vg).(k - 1) in
  if Float.is_nan r_bar then neg_infinity
  else
    floor_after ~sigma2:(Variance_growth.variance vg) ~spare
      ~drift:(b +. (mf *. spare)) ~v_k:(mf +. (2.0 *. weighted)) ~p_k ~r_bar

let analyze vg ~mu ~c ~b =
  check_args ~mu ~c ~b;
  (* One loop, no closure and no boxed float per step: V(m) and the
     objective are computed here from the prefix sums, in the operation
     order of [Variance_growth.v] and [objective], so every result is
     bit-identical to scanning [objective] with
     [Numerics.Optimize.integer_argmin] (the reference the tests hold
     this loop to).  The table grows one lag per step, exactly as far
     as the scan reaches. *)
  let sigma2 = Variance_growth.variance vg and spare = c -. mu in
  let p = ref (Variance_growth.prefix_r vg)
  and q = ref (Variance_growth.prefix_ir vg)
  and bound = ref (Variance_growth.tail_bound vg) in
  let best = ref 0.0 and m_star = ref 1 in
  let m = ref 0 and stopped = ref false in
  while (not !stopped) && !m < hard_cap do
    incr m;
    let k = !m in
    Variance_growth.ensure vg (k - 1);
    if k - 1 >= Array.length !p then begin
      p := Variance_growth.prefix_r vg;
      q := Variance_growth.prefix_ir vg;
      bound := Variance_growth.tail_bound vg
    end;
    let mf = float_of_int k in
    let drift = b +. (mf *. spare) in
    let p_k = !p.(k - 1) in
    let weighted = (mf *. p_k) -. !q.(k - 1) in
    let v_k = mf +. (2.0 *. weighted) in
    let value = drift *. drift /. (2.0 *. (sigma2 *. v_k)) in
    if k = 1 || value < !best then begin
      best := value;
      m_star := k
    end;
    let r_bar = !bound.(k - 1) in
    stopped :=
      if Float.is_nan r_bar then
        (* No bound on the later lags.  The objective diverges whenever
           V(m) = o(m^2), so it eventually doubles its minimum; being
           well past the running argmin guards against shallow wiggles
           near it, but not against a dip at long lags. *)
        value > 2.0 *. !best && k > (margin * !m_star) + 64
      else
        floor_after ~sigma2 ~spare ~drift ~v_k ~p_k ~r_bar
        >= !best *. (1.0 +. slack)
  done;
  let m_star = !m_star and scanned_up_to = !m in
  Obs.Registry.Counter.incr c_searches;
  Obs.Registry.Counter.incr ~by:scanned_up_to c_iterations;
  Obs.Registry.Histogram.observe h_m_star (float_of_int m_star);
  { m_star; rate = !best; scanned_up_to; capped = not !stopped }

let lrd_closed_form ~h ~mu ~c ~b =
  assert (h > 0.0 && h < 1.0 && c > mu && b >= 0.0);
  h *. b /. ((1.0 -. h) *. (c -. mu))
