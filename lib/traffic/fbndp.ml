type params = { alpha : float; a : float; m : int; r : float }

let check_alpha alpha =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg (Printf.sprintf "Fbndp: alpha = %g outside (0, 1)" alpha)

let create ~alpha ~a ~m ~r =
  check_alpha alpha;
  if not (a > 0.0) then invalid_arg "Fbndp: breakpoint A must be positive";
  if m < 1 then invalid_arg "Fbndp: M must be at least 1";
  if not (r > 0.0) then invalid_arg "Fbndp: rate R must be positive";
  { alpha; a; m; r }

let hurst { alpha; _ } = (alpha +. 1.0) /. 2.0
let lambda { m; r; _ } = r *. float_of_int m /. 2.0

(* The constant K(alpha) in T_0^alpha = K(alpha) / (R A^(1-alpha)). *)
let onset_constant alpha =
  alpha *. (alpha +. 1.0) /. (2.0 -. alpha)
  *. (((1.0 -. alpha) *. exp (2.0 -. alpha)) +. 1.0)

let fractal_onset_time { alpha; a; r; _ } =
  (onset_constant alpha /. r *. (a ** (alpha -. 1.0))) ** (1.0 /. alpha)

let of_target ~alpha ~lambda ~t0 ~m =
  check_alpha alpha;
  if not (lambda > 0.0 && t0 > 0.0) then
    invalid_arg "Fbndp: lambda and t0 must be positive";
  if m < 1 then invalid_arg "Fbndp: M must be at least 1";
  let r = 2.0 *. lambda /. float_of_int m in
  (* T0^alpha = K / (R A^(1-alpha))  =>  A = (T0^alpha R / K)^(1/(alpha-1)). *)
  let a = ((t0 ** alpha) *. r /. onset_constant alpha) ** (1.0 /. (alpha -. 1.0)) in
  create ~alpha ~a ~m ~r

let frame_mean t ~ts = lambda t *. ts

let frame_variance t ~ts =
  let t0 = fractal_onset_time t in
  (1.0 +. ((ts /. t0) ** t.alpha)) *. lambda t *. ts

let of_moments ~alpha ~mean ~variance ~m ~ts =
  check_alpha alpha;
  if not (ts > 0.0) then invalid_arg "Fbndp: frame duration must be positive";
  if not (variance > mean) then
    invalid_arg "Fbndp: frame variance must exceed the Poisson floor (mean)";
  let lambda = mean /. ts in
  (* variance/mean = 1 + (ts/t0)^alpha  =>  t0 = ts / (var/mean - 1)^(1/alpha). *)
  let ratio = (variance /. mean) -. 1.0 in
  let t0 = ts /. (ratio ** (1.0 /. alpha)) in
  of_target ~alpha ~lambda ~t0 ~m

let g_factor t ~ts =
  let t0 = fractal_onset_time t in
  (ts ** t.alpha) /. ((ts ** t.alpha) +. (t0 ** t.alpha))

(* (1/2) * second central difference of k^(alpha+1). *)
let half_nabla2 alpha k =
  assert (k >= 1);
  let e = alpha +. 1.0 in
  let kf = float_of_int k in
  0.5
  *. (((kf +. 1.0) ** e) -. (2.0 *. (kf ** e)) +. ((kf -. 1.0) ** e))

(* g(T_s) costs an exp and five powers; computed once per
   [frame_acf t ~ts], not once per lag, since variance-growth tables
   call the per-lag function for every lag they scan. *)
let frame_acf t ~ts =
  let g = g_factor t ~ts in
  fun k ->
    assert (k >= 0);
    if k = 0 then 1.0 else g *. half_nabla2 t.alpha k

(* One kernel over the M ON/OFF sources, their state in flat arrays.
   Each period is drawn inline with [Onoff_dist.sample]'s expression:
   a call into that module would box the period's length, since dev
   builds compile with -opaque and inline nothing across modules.  The
   stream must stay [Fractal_onoff]'s to the bit (the fbndp tests
   compare them), which fixes the draw order (from substream i: the
   residual, the phase, then one uniform per period), the Poisson
   generator split off after the substreams, and the summation order
   (each source's ON time from 0, then the sources in index order). *)
let process t ~ts =
  assert (ts > 0.0);
  let dist = Onoff_dist.of_alpha ~alpha:t.alpha ~a:t.a in
  let { Onoff_dist.a; tail_mass = e; neg_a_over_gamma; inv_gamma; _ } = dist in
  let m = t.m and r = t.r in
  let spawn rng =
    let rngs = Array.init m (fun i -> Numerics.Rng.jump_to_substream rng i) in
    let remaining = Array.make m 0.0 in
    let on = Array.make m false in
    for i = 0 to m - 1 do
      remaining.(i) <- Onoff_dist.equilibrium_sample dist rngs.(i);
      on.(i) <- Numerics.Rng.bool rngs.(i)
    done;
    let poisson_rng = Numerics.Rng.split rng in
    fun () ->
      let on_time = ref 0.0 in
      for i = 0 to m - 1 do
        let g = rngs.(i) in
        let acc = ref 0.0 and left = ref ts in
        let rem = ref remaining.(i) and on_i = ref on.(i) in
        while !left > 0.0 do
          if !rem > !left then begin
            if !on_i then acc := !acc +. !left;
            rem := !rem -. !left;
            left := 0.0
          end
          else begin
            if !on_i then acc := !acc +. !rem;
            left := !left -. !rem;
            on_i := not !on_i;
            let s = Numerics.Rng.float g in
            rem := if s > e then neg_a_over_gamma *. log s else a *. ((e /. s) ** inv_gamma)
          end
        done;
        remaining.(i) <- !rem;
        on.(i) <- !on_i;
        on_time := !on_time +. !acc
      done;
      float_of_int (Numerics.Dist.poisson poisson_rng ~mean:(r *. !on_time))
  in
  {
    Process.name =
      Printf.sprintf "FBNDP(alpha=%g,M=%d,lambda=%g)" t.alpha t.m (lambda t);
    mean = frame_mean t ~ts;
    variance = frame_variance t ~ts;
    acf = frame_acf t ~ts;
    hurst = Some (hurst t);
    (* [half_nabla2] forms its second difference by cancellation, so
       far enough out the computed ACF rises again by a rounding step.
       For alpha in [0.2, 0.9] the first such lag lies above 70,000,
       clear of the 65,536-lag ceiling below which a [`Decreasing]
       tail is used; as alpha nears 0 or 1 it falls to about 30,000,
       so those exponents declare no tail. *)
    tail = (if t.alpha >= 0.2 && t.alpha <= 0.9 then `Decreasing else `Unknown);
    spawn;
  }
