(** The variance of partial sums of a stationary source,

    [V(m) = Var(Y_1 + ... + Y_m)
          = sigma^2 (m + 2 sum_(i=1)^(m) (m - i) r(i))]

    (paper eq. 10) — the only statistic of the source that enters the
    Bahadur–Rao rate function, and hence the carrier of the Critical
    Time Scale result: the CLR depends on the first [m_star]
    autocorrelations, and on them exclusively through [V m_star].

    Evaluation is incremental: prefix sums of [r(i)] and [i * r(i)] are
    memoized, so a scan over [m = 1 .. M] costs O(M) ACF evaluations
    total. *)

type t

type tail = [ `Decreasing | `Recurrent of int | `Unknown ]
(** What the ACF guarantees beyond the lags tabulated so far; the
    same type as [Traffic.Process.tail].  From it the table keeps, for
    each lag [m], a bound on every later lag, which lets {!Cts.analyze}
    prove where its scan may stop.  A declaration must hold for the
    ACF {i as computed}, rounding included:
    - [`Decreasing]: [r(i) >= 0] and non-increasing.  The bound is
      [r(m)].  It is used only while [m < monotone_ceiling]; past that
      lag no bound is given;
    - [`Recurrent p] ([p >= 1]): for [i >= p],
      [r(i) = rho (w_1 r(i-1) + ... + w_p r(i-p))] with [rho < 1] and
      [w] a probability vector.  The bound is the largest [|r|] among
      lags [m-p+1 .. m], with [r(0) = 1];
    - [`Unknown]: no bound; the scan keeps its heuristic stop.

    A wrong declaration makes the scan stop early, which overstates
    the rate. *)

val monotone_ceiling : int
(** 65,536.  A [`Decreasing] tail bounds lags only below this one.
    Analytic LRD forms such as [Traffic.Fbndp]'s ACF take a second
    difference of [k^(alpha+1)] by cancellation, so their computed
    values stop being non-increasing at large lags; for the paper's
    models this first happens between lags 81,000 and 88,000. *)

val create : acf:(int -> float) -> variance:float -> tail:tail -> t
(** [acf] is the source autocorrelation ([acf 0] is ignored and taken
    as 1); [variance > 0] is the frame-size variance sigma^2; [tail]
    is the ACF's declared envelope (see {!tail}).  Raises
    [Invalid_argument] on [`Recurrent p] with [p < 1]. *)

val v : t -> int -> float
(** [v t m] is V(m) for [m >= 1]. *)

val variance : t -> float
(** The underlying sigma^2 (= V(1)). *)

(** {2 Prefix sums and tail bounds, for the CTS scan}

    {!Cts.analyze} evaluates [V(m)] and its stopping certificate in
    its own loop from these memoized arrays, so that a scan step
    neither crosses a module boundary for each value nor boxes a
    float. *)

val ensure : t -> int -> unit
(** [ensure t m] fills the prefix sums and tail bounds through index
    [m], calling the ACF once for each lag not yet tabulated and never
    beyond [m].  It allocates only when the table grows, plus what the
    ACF itself allocates. *)

val prefix_r : t -> float array
(** [(prefix_r t).(i)] is [r(1) + ... + r(i)], valid for every [i] up
    to the largest index passed to {!ensure} so far ([(prefix_r t).(0)]
    is [0.]).  The array is the table's own storage and is read-only:
    writing to it corrupts every later [V(m)].  Growing the table
    replaces it, so re-fetch it after any {!ensure} past its length. *)

val prefix_ir : t -> float array
(** [(prefix_ir t).(i)] is [1 r(1) + ... + i r(i)]; same validity,
    read-only contract and re-fetch rule as {!prefix_r}. *)

val tail_bound : t -> float array
(** [(tail_bound t).(i)] is [>= 0] and [>= r(j)] for every lag
    [j > i], worked out from lags [0 .. i] alone; it is [nan] where
    the tail gives no bound.  Same validity, read-only contract and
    re-fetch rule as {!prefix_r}. *)

val of_acf_array : acf:float array -> variance:float -> t
(** Same, from a tabulated ACF; lags beyond the table are treated as
    zero correlation.  Its tail bound is the table's suffix maximum,
    floored at 0, computed once. *)

val truncated : t -> at:int -> t
[@@lint.allow "U1"] (* oracle for core "truncating ACF beyond m* is free" *)
(** [truncated t ~at] is the source with correlations beyond lag [at]
    set to zero — the "keep only the first m correlations" surgery used
    to demonstrate the CTS effect directly.  It keeps [t]'s tail, which
    the zeros satisfy. *)
