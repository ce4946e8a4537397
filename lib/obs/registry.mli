(** The process-wide registry of typed instruments.

    Instruments are addressed by a dotted lowercase name (e.g.
    ["cac.cache.hits"]) plus an optional {!Labels.t}.  Three kinds:

    - {b counters}: monotonic integers ([incr ~by] with [by >= 0]);
    - {b gauges}: floats with set/add semantics;
    - {b histograms}: fixed-bin {!Stats.Histogram.t}s plus a running
      sum (for mean and Prometheus [_sum] exposition).

    {2 Sharding}

    Every update touches only the calling domain's shard, reached
    through [Domain.DLS] — no locks, no cross-domain cache traffic on
    the hot path.  {!snapshot} merges the shards: counters and gauges
    by summation, histograms bin-wise (associative and commutative, so
    the merged view is independent of domain count and scheduling).
    Snapshots are meant to be taken between or after parallel
    sections; racing a snapshot against instrument {e creation} on
    another domain is not supported.

    {2 Handles vs keyed updates}

    The keyed functions ({!incr}, {!observe}, …) hash the
    (name, labels) key on every call — fine off the hot path.  The
    handle modules ({!Counter}, {!Gauge}, {!Histogram}) cache the
    calling domain's shard cell and re-resolve when the domain
    changes; since a domain only ever updates cells of its own shard,
    a handle — including a shared module-level one — is safe from any
    domain.  Prefer handles on hot paths (one field read and compare
    per update). *)

type key = string * Labels.t

type exemplar = {
  ex_trace : string;  (** trace id active when the value was observed *)
  ex_value : float;
  ex_wall : float;  (** wall-clock seconds of the observation *)
}
(** Histogram observations made while a {!Trace} context is installed
    on the observing domain stamp the series with an exemplar — the
    most recent traced value — which the Prometheus exporter emits in
    OpenMetrics [# {trace_id="…"}] form. *)

(** {1 Declarations}

    Declared instruments appear in every {!snapshot} (zero-valued if
    never updated), giving exports a stable schema.  Declaring is
    idempotent; for histograms the first declaration fixes the bin
    layout. *)

val declare_counter : string -> unit
val declare_gauge : string -> unit
val declare_histogram : ?lo:float -> ?hi:float -> ?bins:int -> string -> unit
(** Defaults: 50 bins over [0, 1000). *)

val set_histogram_spec : ?lo:float -> ?hi:float -> ?bins:int -> string -> unit
(** Fixes the bin layout of a histogram name {e without} declaring an
    unlabelled series — use this for instruments that are only ever
    recorded with labels, so exports don't grow a spurious zero row.
    Like {!declare_histogram}, the first layout wins. *)

(** {1 Keyed updates} *)

val incr : ?labels:Labels.t -> ?by:int -> string -> unit
(** Raises [Invalid_argument] on negative [by]. *)

val set_gauge : ?labels:Labels.t -> string -> float -> unit
val add_gauge : ?labels:Labels.t -> string -> float -> unit

val observe : ?labels:Labels.t -> string -> float -> unit
(** Records into the named histogram, creating it with the declared
    (or default) bin layout on first use in this domain. *)

(** {1 Handles} *)

module Counter : sig
  type t

  val v : ?labels:Labels.t -> string -> t
  (** Binds a handle for the calling domain.  With empty labels this
      also declares the counter (stable zero in exports); labelled
      handles don't, so label sets only appear once recorded. *)

  val incr : ?by:int -> t -> unit
end

module Gauge : sig
  type t

  val v : ?labels:Labels.t -> string -> t
  val add : t -> float -> unit
end

module Histogram : sig
  type t

  val v : ?labels:Labels.t -> ?lo:float -> ?hi:float -> ?bins:int -> string -> t
  val observe : t -> float -> unit
end

(** {1 Reading} *)

type histogram_snapshot = {
  hlo : float;
  hhi : float;
  counts : int array;  (** in-range counts, one per bin *)
  underflow : int;
  overflow : int;
  sum : float;  (** sum of all observed values, including out-of-range *)
  count : int;  (** total observations, including out-of-range *)
  exemplar : exemplar option;  (** freshest traced observation, if any *)
}

type snapshot = {
  counters : (key * int) list;
  gauges : (key * float) list;
  histograms : (key * histogram_snapshot) list;
}
(** All lists sorted by (name, labels) for deterministic exports. *)

val snapshot : unit -> snapshot
(** Also polls the GC: the gauges carry the eight [runtime.*] figures
    of {!Runtime.gauges}, read at this call. *)

val counter_value : ?labels:Labels.t -> string -> int
(** Merged value across all shards; 0 if never updated. *)

val histogram_snapshot : ?labels:Labels.t -> string -> histogram_snapshot option
