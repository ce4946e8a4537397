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

val create : acf:(int -> float) -> variance:float -> t
(** [acf] is the source autocorrelation ([acf 0] is ignored and taken
    as 1); [variance > 0] is the frame-size variance sigma^2. *)

val v : t -> int -> float
(** [v t m] is V(m) for [m >= 1]. *)

val variance : t -> float
(** The underlying sigma^2 (= V(1)). *)

(** {2 Prefix sums, for the CTS scan}

    {!Cts.analyze} evaluates [V(m)] in its own loop from the memoized
    prefix sums, so that a scan step neither crosses a module boundary
    for each value nor boxes a float. *)

val ensure : t -> int -> unit
(** [ensure t m] fills the prefix sums through index [m], calling the
    ACF once for each lag not yet tabulated and never beyond [m].  It
    allocates only when the table grows, plus what the ACF itself
    allocates. *)

val prefix_r : t -> float array
(** [(prefix_r t).(i)] is [r(1) + ... + r(i)], valid for every [i] up
    to the largest index passed to {!ensure} so far ([(prefix_r t).(0)]
    is [0.]).  The array is the table's own storage and is read-only:
    writing to it corrupts every later [V(m)].  Growing the table
    replaces it, so re-fetch it after any {!ensure} past its length. *)

val prefix_ir : t -> float array
(** [(prefix_ir t).(i)] is [1 r(1) + ... + i r(i)]; same validity,
    read-only contract and re-fetch rule as {!prefix_r}. *)

val of_acf_array : acf:float array -> variance:float -> t
(** Same, from a tabulated ACF; lags beyond the table are treated as
    zero correlation. *)

val truncated : t -> at:int -> t
(** [truncated t ~at] is the source with correlations beyond lag [at]
    set to zero — the "keep only the first m correlations" surgery used
    to demonstrate the CTS effect directly. *)
