(** The Domain-parallel serving pool.

    One accept loop (run by the caller of {!serve}) feeds accepted
    connections into a bounded work queue drained by [config.domains]
    worker domains.  Backpressure is explicit and fail-fast: when the
    queue is full the acceptor answers [503 Service Unavailable] and
    closes — overload degrades to fast rejections, never to an
    unbounded queue.

    {2 Per-connection discipline}

    Each connection gets a fresh read deadline per request
    ([config.read_timeout_s], enforced by {!Io}), the {!Http.limits}
    caps, and at most [config.max_conn_requests] keep-alive requests:
    the response to the last one carries [connection: close].  Handler
    exceptions are contained by {!Resilience.Guard.protect} — the
    request answers {!Router.internal_error}'s counted [500] and the
    worker survives.  The [srv.http.handler] fault point fires before
    every dispatch, so chaos specs cover the serving path.

    {2 Telemetry}

    [srv.http.requests] (total and per
    [{route,method,status}]), [srv.http.latency_us] per route (the
    one handler-time figure), [srv.http.queue_wait.us] per route,
    [srv.http.in_flight], [srv.http.queue_depth] (set each poll
    tick), [srv.http.connections], [srv.http.shed],
    [srv.http.parse_errors], [srv.http.handler_errors], plus the
    [srv.http.request] span (trace only).  When an {!Obs.Events}
    consumer runs, each request's GC overlap — the delta of
    {!Obs.Events.cumulative_pause_ns} across its dispatch — is
    recorded as [srv.http.gc_pause.us] per route.

    {2 Trace correlation}

    Every dispatched request runs under an {!Obs.Trace} context —
    parsed from the peer's [traceparent] header when present and
    well-formed, freshly generated otherwise — so all spans and
    histogram exemplars it produces share one trace id.  The response
    carries the context back in a [traceparent] header.  With
    [config.access_log] set, each request also emits a one-line JSON
    access log ([method], [path], [status], [us], [queue_wait_us],
    [gc_pause_us], [trace]) through the sink that thunk returns,
    resolved per line so the daemon can rotate the log on SIGHUP.

    {2 Housekeeping tick}

    [config.tick], when set, runs on the accept-loop domain once per
    poll tick (~250 ms), after the queue-depth update, inside
    {!Resilience.Guard.protect} — a throwing tick is counted and
    dropped, never fatal.  The daemon hangs periodic work off it:
    signal-flag polling, snapshot scheduling.

    {2 Shutdown}

    {!stop} is async-signal-safe (one atomic write).  The accept loop
    notices within one 250 ms poll tick, stops accepting, enqueues one
    quit sentinel per worker {e behind} any queued connections — every
    accepted request is answered — then joins the workers and
    returns.  Because {!serve} returns only after every worker domain
    has joined, any work the caller does after it (e.g. a shutdown
    snapshot) observes the final state: a request racing the drain has
    either fully completed or was shed with 503. *)

type config = {
  domains : int;  (** worker domains draining the queue *)
  queue_capacity : int;  (** accepted connections queued before shedding *)
  read_timeout_s : float option;  (** per-request read deadline; [None] = none *)
  limits : Http.limits;
  max_conn_requests : int;  (** keep-alive requests per connection *)
  access_log : (unit -> Obs.Sink.t) option;
      (** the access-log sink, resolved per line; [None] = off *)
  tick : (unit -> unit) option;
      (** housekeeping hook, run each accept-loop poll tick *)
}

val default_config : config
(** [min 4 (recommended_domain_count - 1)] domains (at least 1), a
    128-connection queue, 10 s read timeout, {!Http.default_limits},
    100k requests per connection, access log off, no tick hook. *)

type t

val create : ?config:config -> Router.t -> t
(** Raises [Invalid_argument] on a non-positive domain count, queue
    capacity, request budget or timeout. *)

val listen : host:string -> port:int -> unit -> Unix.file_descr
(** Bind and listen on [host:port] ([SO_REUSEADDR] set, backlog 128;
    port [0] picks an ephemeral port — read it back with
    {!bound_port}).  Raises [Invalid_argument] on a bad host or a port
    outside [0..65535]. *)

val bound_port : Unix.file_descr -> int

val serve : t -> Unix.file_descr -> unit
(** Run the accept loop on the calling domain, spawning the worker
    domains first; returns after {!stop} completes the drain.  The
    listening socket stays open (the caller owns it).  [SIGPIPE] is
    set to ignore for the whole process. *)

val stop : t -> unit
(** Request shutdown.  Safe to call from a signal handler. *)

val stopping : t -> bool

val accepting : t -> bool
(** True while {!serve}'s accept loop is live — poll this to know when
    a backgrounded server is ready. *)

val queue_length : t -> int
[@@lint.allow "U1"]
(* observed by server "pool: overload sheds 503 from the accept loop" *)
(** Connections accepted but not yet claimed by a worker. *)

val serve_connection : t -> queue_wait_us:float -> Unix.file_descr -> unit
(** Serve one connection synchronously on the calling domain (the
    worker body; exposed for socketpair-driven tests).  [queue_wait_us]
    is the time the connection sat in the work queue; it is charged to
    the connection's {e first} request (later keep-alive requests
    never queued).  Closes [fd] before returning. *)
