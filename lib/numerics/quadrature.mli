(** Numerical integration. *)

val adaptive_simpson :
  f:(float -> float) -> lo:float -> hi:float -> tol:float -> float
(** [adaptive_simpson ~f ~lo ~hi ~tol] integrates [f] over [lo, hi]
    with recursive interval halving until the Richardson error estimate
    of each panel falls under its share of [tol]. *)

val gauss_legendre_16 : f:(float -> float) -> lo:float -> hi:float -> float
(** Fixed 16-point Gauss–Legendre rule on [lo, hi]; exact for
    polynomials up to degree 31, cheap for smooth integrands. *)

val tail_integral :
  f:(float -> float) -> lo:float -> decay:float -> tol:float -> float
[@@lint.allow "U1"] (* oracle for onoff "closed-form mean" *)
(** [tail_integral ~f ~lo ~decay ~tol] approximates the integral of
    [f] over [lo, infinity) for integrands decaying at least like
    [x^-decay] with [decay > 1], by summing geometric panels until the
    last panel contributes less than [tol]. *)
