(** Bounded LRU memoisation of admission-decision primitives.

    An online CAC engine answers a stream of admit/release requests
    whose underlying numerical work — Bahadur–Rao rate-function
    evaluations and effective-bandwidth bisections — depends only on a
    small, heavily revisited state space (source class, per-source
    buffer and bandwidth, connection count).  Caching those evaluations
    turns the steady-state decision into a hash lookup.

    The cache is generic in key and value, bounded by an entry
    capacity, and evicts least-recently-used entries.  Hit, miss and
    eviction counts flow to two places: the process-wide telemetry
    counters [cac.cache.{hits,misses,evictions}] in {!Obs.Registry}
    (summed over every cache instance and domain — the export source
    of truth), and a per-instance {!stats} view used for steady-state
    windows within one run ({!diff}).  A capacity of 0 disables
    memoisation (every lookup recomputes), which gives benchmarks and
    tests an uncached reference path.

    Not thread-safe: use one cache per domain. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [create ~capacity] holds at most [capacity] entries.  Raises
    [Invalid_argument] on a negative [capacity]. *)

val find_or_add : ('k, 'v) t -> 'k -> compute:(unit -> 'v) -> 'v
(** [find_or_add t k ~compute] returns the cached value for [k],
    computing and inserting it (possibly evicting the LRU entry) on a
    miss.  The entry becomes most-recently-used either way. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

val stats : ('k, 'v) t -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when no lookups happened. *)

val diff : before:stats -> after:stats -> stats
(** Counter deltas between two snapshots of the same cache — used to
    report the steady-state hit rate after a warm-up window. *)
