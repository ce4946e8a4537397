type t = {
  gamma : float;
  a : float;
  mean : float;
  tail_mass : float;
  body_mass : float;
  neg_a_over_gamma : float;
  inv_gamma : float;
  tail_scale : float;
  a_pow_1mg : float;
  inv_1mg : float;
}

let create ~gamma ~a =
  if not (gamma > 1.0 && gamma < 2.0) then
    invalid_arg (Printf.sprintf "Onoff_dist: gamma = %g outside (1, 2)" gamma);
  if not (a > 0.0) then invalid_arg "Onoff_dist: breakpoint must be positive";
  (* mean = integral of the survival function: exponential body part
     plus Pareto tail part. *)
  let e = exp (-.gamma) in
  let body_mass = a /. gamma *. (1.0 -. e) in
  {
    gamma;
    a;
    mean = body_mass +. (e *. a /. (gamma -. 1.0));
    tail_mass = e;
    body_mass;
    neg_a_over_gamma = -.(a /. gamma);
    inv_gamma = 1.0 /. gamma;
    tail_scale = e *. (a ** gamma);
    a_pow_1mg = a ** (1.0 -. gamma);
    inv_1mg = 1.0 /. (1.0 -. gamma);
  }

let of_alpha ~alpha ~a =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg (Printf.sprintf "Onoff_dist: alpha = %g outside (0, 1)" alpha);
  create ~gamma:(2.0 -. alpha) ~a

let pdf { gamma; a; tail_mass; _ } x =
  if x < 0.0 then 0.0
  else if x <= a then gamma /. a *. exp (-.gamma *. x /. a)
  else gamma *. tail_mass *. (a ** gamma) *. (x ** (-.gamma -. 1.0))

let survival { gamma; a; tail_mass; _ } x =
  if x <= 0.0 then 1.0
  else if x <= a then exp (-.gamma *. x /. a)
  else tail_mass *. ((a /. x) ** gamma)

let cdf t x = 1.0 -. survival t x

let sample t rng =
  (* Draw the survival value directly: S(T) is uniform on (0,1). *)
  let s = Numerics.Rng.float rng in
  let e = t.tail_mass in
  if s > e then t.neg_a_over_gamma *. log s else t.a *. ((e /. s) ** t.inv_gamma)

(* integral_0^x S(u) du, needed for the equilibrium distribution. *)
let survival_integral t x =
  let { gamma; a; _ } = t in
  if x <= 0.0 then 0.0
  else if x <= a then a /. gamma *. (1.0 -. exp (-.gamma *. x /. a))
  else
    t.body_mass
    +. (t.tail_scale *. (t.a_pow_1mg -. (x ** (1.0 -. gamma))) /. (gamma -. 1.0))

let equilibrium_cdf t x = survival_integral t x /. t.mean

let equilibrium_sample t rng =
  let { gamma; a; mean; body_mass; _ } = t in
  let u = Numerics.Rng.float rng in
  let target = u *. mean in
  if target <= body_mass then begin
    (* Invert the exponential-body branch of the integrated tail. *)
    let inner = 1.0 -. (gamma *. target /. a) in
    t.neg_a_over_gamma *. log inner
  end
  else begin
    (* Invert the Pareto branch: target = body + e a^g (a^(1-g) - x^(1-g)) / (g-1). *)
    let rhs =
      t.a_pow_1mg -. ((target -. body_mass) *. (gamma -. 1.0) /. t.tail_scale)
    in
    rhs ** t.inv_1mg
  end
