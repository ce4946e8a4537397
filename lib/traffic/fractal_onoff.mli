(** A single fractal ON/OFF source: an alternating renewal process
    whose ON and OFF durations are i.i.d. draws from the same
    heavy-tailed {!Onoff_dist}.  By symmetry the stationary probability
    of being ON is 1/2.

    The process is advanced in fixed time steps; each step reports the
    amount of ON time inside the step, which is exactly what the
    Poisson-modulation layer of the FBNDP needs.

    This is the per-source reference, one record and one
    {!Onoff_dist.sample} call per period.  No program runs it:
    {!Fbndp.process} advances all of its sources in one kernel, and the
    tests hold that kernel to this module's stream bit for bit. *)

type t

val create : Onoff_dist.t -> Numerics.Rng.t -> t
[@@lint.allow "U1"] (* oracle for fbndp "kernel = per-source reference, bit for bit" *)
(** A process started in steady state: the residual duration of the
    current period drawn from the equilibrium distribution, then ON
    with probability 1/2, both from the given generator. *)

val on_time : t -> dt:float -> float
[@@lint.allow "U1"] (* oracle for fbndp "kernel = per-source reference, bit for bit" *)
(** [on_time t ~dt] advances the process by [dt > 0] seconds and
    returns the total ON time accumulated during the step (between 0
    and [dt]).  Each period that ends inside the step draws the next
    one's length with {!Onoff_dist.sample}. *)
