type t = { gamma : float; a : float; mean : float; tail_mass : float }

let create ~gamma ~a =
  if not (gamma > 1.0 && gamma < 2.0) then
    invalid_arg (Printf.sprintf "Onoff_dist: gamma = %g outside (1, 2)" gamma);
  if not (a > 0.0) then invalid_arg "Onoff_dist: breakpoint must be positive";
  (* mean = integral of the survival function: exponential body part
     plus Pareto tail part. *)
  let e = exp (-.gamma) in
  let mean = (a /. gamma *. (1.0 -. e)) +. (e *. a /. (gamma -. 1.0)) in
  { gamma; a; mean; tail_mass = e }

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
  if s > e then -.(t.a /. t.gamma) *. log s
  else t.a *. ((e /. s) ** (1.0 /. t.gamma))

(* integral_0^x S(u) du, needed for the equilibrium distribution. *)
let survival_integral t x =
  let { gamma; a; tail_mass = e; _ } = t in
  if x <= 0.0 then 0.0
  else if x <= a then a /. gamma *. (1.0 -. exp (-.gamma *. x /. a))
  else begin
    let body = a /. gamma *. (1.0 -. e) in
    let tail =
      e *. (a ** gamma)
      *. ((a ** (1.0 -. gamma)) -. (x ** (1.0 -. gamma)))
      /. (gamma -. 1.0)
    in
    body +. tail
  end

let equilibrium_cdf t x = survival_integral t x /. t.mean

let equilibrium_sample t rng =
  let { gamma; a; mean; tail_mass = e } = t in
  let u = Numerics.Rng.float rng in
  let target = u *. mean in
  let body_mass = a /. gamma *. (1.0 -. e) in
  if target <= body_mass then begin
    (* Invert the exponential-body branch of the integrated tail. *)
    let inner = 1.0 -. (gamma *. target /. a) in
    -.(a /. gamma) *. log inner
  end
  else begin
    (* Invert the Pareto branch: target = body + e a^g (a^(1-g) - x^(1-g)) / (g-1). *)
    let rhs =
      (a ** (1.0 -. gamma))
      -. ((target -. body_mass) *. (gamma -. 1.0) /. (e *. (a ** gamma)))
    in
    rhs ** (1.0 /. (1.0 -. gamma))
  end
