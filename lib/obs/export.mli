(** Renderers for registry snapshots. *)

val key_string : Registry.key -> string
(** ["name"] or ["name{k=\"v\",...}"] — the key format used by the JSON
    document's object keys. *)

val prometheus : Registry.snapshot -> string
(** Prometheus text exposition (version 0.0.4): dotted names become
    underscored, counters gain [_total], histograms expose cumulative
    [_bucket{le="..."}] series plus [_sum] and [_count].  Observations
    at or above a histogram's upper bound count only towards the
    [+Inf] bucket. *)

val json : Registry.snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] keyed
    by {!key_string}. *)

type format = Json_doc | Prometheus

val format_of_string : string -> format option
(** ["json"], ["prom"]/["prometheus"]. *)

val render : format -> Registry.snapshot -> string
