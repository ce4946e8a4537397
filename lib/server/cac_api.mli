(** The admission-control daemon's endpoint surface.

    Wraps a {!Cac.Engine.t} (single-domain by contract) behind one
    mutex and exposes it as a {!Router.t}:

    - [POST /v1/decide] — body [{"link": id, "class": name}]; answers
      the non-mutating verdict
      [{"admissible", "degraded", "reason", "log10_bop", "required_bw"}].
    - [POST /v1/admit] — same body; on admission establishes the
      connection and answers [{"admitted": true, "conn": id}], else
      [{"admitted": false, "reason": ...}].
    - [POST /v1/release] — body [{"conn": id}]; answers
      [{"released": true}] or [404].
    - [GET /metrics] — Prometheus text exposition of the whole
      {!Obs.Registry} (the OpenMetrics scrape endpoint), including
      trace-id exemplars on histogram [+Inf] buckets.
    - [GET /healthz] — liveness: exactly [status], [state] (always
      ["ready"]: the daemon binds only after recovery), [uptime_s],
      [links] (ids) and [connections] (active count).  A wedged accept
      loop shows as a probe that gets no answer.
    - [GET /debug/vars] — JSON introspection: uptime, monotonic clock
      source, [breakers] (every (link, class) circuit breaker that has
      seen a kernel evaluation, with its state, from
      {!Cac.Engine.breakers}), and any sections registered via
      {!add_debug_provider}.  GC and heap figures ([runtime.*]) and
      the counts and sums of every timed leg (handler, queue wait,
      GC-pause overlap) are on [/metrics], not repeated here.
    - [GET /heatmap], [GET /heatmap.csv] — the per-buffer
      [cts.m_star] distributions ({!Obs.Heatmap}) as a self-contained
      HTML view / long-format CSV.

    [decide]/[admit]/[release] run inside [cac.api.*] spans, so a
    traced request produces a span tree under the pool's
    [srv.http.request] root; their time series is the pool's
    [srv.http.latency_us{route}].

    Malformed JSON answers [400]; missing or mistyped fields answer
    [422]; unknown links, classes and connections answer [404].  A
    handler that raises (the barrier included) answers
    {!Router.internal_error}'s [500], counted in
    [srv.http.handler_errors]. *)

type t

val create : ?barrier:(unit -> unit) -> Cac.Engine.t -> t
(** [barrier] (default: no-op) is the durability barrier (e.g.
    [Persist.Store.barrier]): it runs after each acked mutation (admit
    established / release applied), outside the engine mutex, before
    the response is written. *)

val with_engine : t -> (Cac.Engine.t -> 'a) -> 'a
(** Run [f] on the engine under the API mutex — for daemon code that
    needs to touch the engine (setup, reporting) while the server is
    live. *)

val add_debug_provider : t -> name:string -> (unit -> Obs.Json.t) -> t
(** Register (or replace) a named [/debug/vars] section; the thunk
    runs per request, and an exception renders as
    ["<provider error>"] instead of failing the endpoint.  Returns
    [t] for chaining. *)

val router : t -> Router.t
