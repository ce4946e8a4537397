(** Scalar root finding. *)

val bisect : f:(float -> float) -> lo:float -> hi:float -> tol:float -> float
[@@lint.allow "U1"] (* test-only: optimize "bisect" *)
(** [bisect ~f ~lo ~hi ~tol] is a root of [f] in [lo, hi] located to
    within [tol].  Requires [f lo] and [f hi] to have opposite signs
    (or one of them to be zero). *)

val newton :
  f:(float -> float) -> df:(float -> float) -> x0:float -> tol:float -> float
[@@lint.allow "U1"] (* test-only: optimize "newton" *)
(** Newton iteration from [x0]; falls back to halving the step when the
    derivative is tiny.  Stops when successive iterates differ by less
    than [tol] (or after 100 iterations). *)

val brent : f:(float -> float) -> lo:float -> hi:float -> tol:float -> float
(** Brent–Dekker bracketed root finding: bisection safety with inverse
    quadratic interpolation speed.  Same bracketing requirement as
    {!bisect}. *)
