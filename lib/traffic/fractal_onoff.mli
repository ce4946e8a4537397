(** A single fractal ON/OFF source: an alternating renewal process
    whose ON and OFF durations are i.i.d. draws from the same
    heavy-tailed {!Onoff_dist}.  By symmetry the stationary probability
    of being ON is 1/2.

    The process is advanced in fixed time steps; each step reports the
    amount of ON time inside the step, which is exactly what the
    Poisson-modulation layer of the FBNDP needs. *)

type t

val create : Onoff_dist.t -> Numerics.Rng.t -> t
(** A process started in steady state: ON with probability 1/2, and the
    residual duration of the current period drawn from the equilibrium
    distribution. *)

val on_time : t -> dt:float -> float
(** [on_time t ~dt] advances the process by [dt > 0] seconds and
    returns the total ON time accumulated during the step (between 0
    and [dt]). *)
