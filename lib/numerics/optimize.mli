(** One-dimensional minimisation, continuous and integer.

    The continuous routines assume a unimodal objective on the given
    bracket.  The integer scan used for the Critical Time Scale search
    makes no unimodality assumption: it scans with a certified stopping
    rule supplied by the caller. *)

val golden_section : f:(float -> float) -> lo:float -> hi:float -> tol:float -> float
[@@lint.allow "U1"] (* test-only: optimize "golden section" *)
(** [golden_section ~f ~lo ~hi ~tol] is the abscissa of the minimum of
    the unimodal [f] on [lo, hi], located to within [tol]. *)

val brent : f:(float -> float) -> lo:float -> hi:float -> tol:float -> float
(** Brent's method (golden section with parabolic interpolation);
    typically far fewer evaluations than pure golden section. *)

type integer_argmin = {
  argmin : int;           (** location of the smallest value found *)
  minimum : float;        (** value at [argmin] *)
  scanned_up_to : int;    (** last index examined *)
}

val integer_argmin :
  f:(int -> float) ->
  lo:int ->
  ?hard_cap:int ->
  stop:(best:float -> at:int -> current:float -> bool) ->
  unit ->
  integer_argmin
[@@lint.allow "U1"]
(* oracle for core "CTS scan bit-identical to integer_argmin" *)
(** [integer_argmin ~f ~lo ~stop ()] scans [f] at [lo, lo+1, ...],
    tracking the running minimum, and stops as soon as
    [stop ~best ~at ~current] returns true (or [hard_cap], default
    [2_000_000], is reached).  The stopping predicate receives the best
    value so far, the current index and the current value, so callers
    encode problem-specific certificates (e.g. a lower bound on all
    remaining values exceeding [best]).

    [Core.Cts.analyze] runs its Critical Time Scale scan as its own
    allocation-free loop; this function, fed [Core.Cts.objective] and
    the heuristic stop that loop keeps for ACFs with no declared tail,
    is the reference it is tested against bit for bit. *)
