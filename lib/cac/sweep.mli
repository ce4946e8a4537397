(** Domain-parallel capacity-planning sweeps.

    A sweep evaluates a grid of admission scenarios — (source class,
    buffer, CLR target) on a fixed link — and reports, per cell, the
    admissible-region boundary found by filling a fresh engine to its
    first rejection, plus a replayed stochastic workload's blocking
    probability and cache hit rate.

    Scenarios are deterministic functions of their parameters and seed,
    so a parallel run over OCaml 5 domains returns bit-identical rows
    to a sequential one.  Each scenario builds its own engine and
    {!Source_class.fresh} instance: variance-growth tables and decision
    caches mutate on use and must never be shared across domains.

    Sweeps are crash-proof: each task runs once under a catch-all
    wrapper (and re-arms the {!Resilience.Fault} stream from its
    scenario seed, so injected faults are deterministic whatever
    domain claims the task).  A task that raises becomes a {!Failed}
    outcome carrying the error — one bad scenario can no longer take
    down the whole run, and worker domains never die on a task
    exception.  A failed task is not retried: a scenario is a
    deterministic function of its parameters and seed, so a second
    attempt would repeat the failure. *)

type scenario = {
  class_name : string;  (** resolved per-domain via {!Source_class.fresh} *)
  capacity : float;  (** link capacity, cells/frame *)
  buffer_msec : float;
  target_clr : float;
  requests : int;
      (** workload attempts, offered at 1.1 times the fill boundary
          [n_max]; 0 skips the replay *)
  seed : int;
}

type row = {
  scenario : scenario;
  n_max : int;  (** connections admitted before the first rejection *)
  eff_bw : float;
      (** capacity / n_max, cells/frame; [infinity] when [n_max = 0]
          (rendered as ["-"] by {!print_table}) *)
  utilization : float;  (** mean load over capacity at [n_max] *)
  blocking : float option;  (** steady-state, when a workload ran *)
  cache_hit_rate : float option;  (** steady-state, when a workload ran *)
}

type failure = {
  scenario : scenario;
  error : string;  (** [Printexc.to_string] of the task's exception *)
}

type outcome = Row of row | Failed of failure
(** Exactly one outcome per input scenario, in input order. *)

val grid :
  ?capacity:float ->
  ?requests:int ->
  ?seed:int ->
  class_names:string list ->
  buffers_msec:float list ->
  target_clrs:float list ->
  unit ->
  scenario list
(** The cartesian product, in row-major (class, buffer, clr) order.
    Defaults: [capacity = 16140] (the paper's OC-3-ish link),
    [requests = 0], [seed = 1996].  Seeds are derived per scenario
    from [seed] and the scenario index. *)

val run : ?domains:int -> scenario list -> outcome array
(** Evaluate every scenario, fanning across [domains] OCaml domains
    (default [Domain.recommended_domain_count], capped by the number
    of scenarios; 1 means fully sequential).  Outcome order matches
    the input order regardless of parallelism.  Each task that raises
    becomes a {!Failed} outcome and ticks [cac.sweep.task_errors]. *)

val rows : outcome array -> row array
(** The successful rows, in input order. *)

val failures : outcome array -> failure list
(** The failed scenarios, in input order. *)

val print_table : outcome array -> unit
(** Aligned capacity-planning table on stdout; failed scenarios print
    as [ERROR] rows, and [n_max = 0] cells render eff_bw as ["-"]. *)
