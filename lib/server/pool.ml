(* One accept loop feeding a bounded queue of accepted connections,
   drained by Domain workers.  Backpressure is explicit: a full queue
   sheds the connection with an immediate 503 instead of queueing
   unboundedly, so overload degrades to fast rejections rather than
   collapse (the same fail-fast posture as the engine's circuit
   breakers). *)

type config = {
  domains : int;
  queue_capacity : int;
  read_timeout_s : float option;
  limits : Http.limits;
  max_conn_requests : int;
  access_log : (unit -> Obs.Sink.t) option;
  tick : (unit -> unit) option;
}

let default_config =
  {
    domains = Stdlib.max 1 (Stdlib.min 4 (Domain.recommended_domain_count () - 1));
    queue_capacity = 128;
    read_timeout_s = Some 10.0;
    limits = Http.default_limits;
    max_conn_requests = 100_000;
    access_log = None;
    tick = None;
  }

(* {2 Telemetry}

   Keyed updates (not handles): every update here is adjacent to a
   syscall, so the hash cost is noise.  The latency histogram is only
   ever recorded with a [route] label; fix its shape without
   declaring an unlabelled zero series. *)

let () =
  Obs.Registry.declare_counter "srv.http.requests";
  Obs.Registry.declare_counter "srv.http.connections";
  Obs.Registry.declare_counter "srv.http.shed";
  Obs.Registry.declare_counter "srv.http.parse_errors";
  Obs.Registry.declare_gauge "srv.http.in_flight";
  Obs.Registry.declare_gauge "srv.http.queue_depth";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:1_000_000.0 ~bins:60
    "srv.http.latency_us";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:1_000_000.0 ~bins:60
    "srv.http.queue_wait.us";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:100_000.0 ~bins:50
    "srv.http.gc_pause.us"

(* {2 Bounded work queue}

   [Conn] carries its enqueue timestamp so the worker that pops it can
   charge the time spent queued to the request it serves — the
   queue-wait leg ([srv.http.queue_wait.us]) of the latency
   decomposition. *)

type job = Conn of Unix.file_descr * int64 | Quit

type queue = {
  q : job Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  mutable depth : int;  (** [Conn] jobs currently queued *)
}

let queue_create capacity =
  {
    q = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    depth = 0;
  }

(* Non-blocking; false when the queue is at capacity (the caller
   sheds).  [Quit] sentinels bypass the capacity check so shutdown can
   never itself be shed. *)
let queue_push qu job =
  Mutex.protect qu.mutex (fun () ->
      match job with
      | Conn _ when qu.depth >= qu.capacity -> false
      | _ ->
          (match job with Conn _ -> qu.depth <- qu.depth + 1 | Quit -> ());
          Queue.push job qu.q;
          Condition.signal qu.not_empty;
          true)

let queue_pop qu =
  Mutex.protect qu.mutex (fun () ->
      while Queue.is_empty qu.q do
        Condition.wait qu.not_empty qu.mutex
      done;
      let job = Queue.pop qu.q in
      (match job with Conn _ -> qu.depth <- qu.depth - 1 | Quit -> ());
      job)

let queue_depth qu = Mutex.protect qu.mutex (fun () -> qu.depth)

(* {2 The pool} *)

type t = {
  router : Router.t;
  config : config;
  work : queue;
  stop_flag : bool Atomic.t;  (** set from a signal handler: only an Atomic write *)
  accepting : bool Atomic.t;
}

let create ?(config = default_config) router =
  if config.domains < 1 then invalid_arg "Pool.create: domains < 1";
  if config.queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity < 1";
  if config.max_conn_requests < 1 then
    invalid_arg "Pool.create: max_conn_requests < 1";
  (match config.read_timeout_s with
  | Some s when not (s > 0.0 && Float.is_finite s) ->
      invalid_arg "Pool.create: read_timeout_s must be finite and > 0"
  | _ -> ());
  {
    router;
    config;
    work = queue_create config.queue_capacity;
    stop_flag = Atomic.make false;
    accepting = Atomic.make false;
  }

let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag
let queue_length t = queue_depth t.work
let accepting t = Atomic.get t.accepting

(* {2 Request handling} *)

let incr_requests ~route ~meth ~status =
  Obs.Registry.incr "srv.http.requests";
  Obs.Registry.incr
    ~labels:
      (Obs.Labels.make
         [
           ("route", route);
           ("method", meth);
           ("status", string_of_int status);
         ])
    "srv.http.requests"

(* One structured access-log line per request.  The sink resolves per
   line, which is how SIGHUP-driven log rotation swaps the file under a
   running pool without tearing requests. *)
let access_log_line sink ~ctx ~req ~status ~us ~queue_wait_us ~gc_pause_us =
  Obs.Sink.message (sink ())
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("ts", Obs.Json.Float (Obs.Clock.wall ()));
            ("kind", Obs.Json.String "access");
            ("method", Obs.Json.String (Http.meth_name req.Http.meth));
            ("path", Obs.Json.String req.Http.path);
            ("status", Obs.Json.Int status);
            ("us", Obs.Json.Float us);
            ("queue_wait_us", Obs.Json.Float queue_wait_us);
            ("gc_pause_us", Obs.Json.Float gc_pause_us);
            ("trace", Obs.Json.String ctx.Obs.Trace.trace_id);
          ]))

(* Dispatch one parsed request: the [srv.http.handler] fault point
   fires first (chaos testing of the serving path itself), then the
   handler runs under [Guard.protect] so an exception degrades to a
   counted 500 ([Router.internal_error]) for this request instead of
   killing the worker domain.

   The whole dispatch runs under the request's trace context — parsed
   from the peer's [traceparent] header, generated otherwise — so the
   [srv.http.request] span, every span the handler opens, and every
   histogram exemplar recorded on this domain share one trace id; the
   response echoes it in [traceparent]. *)
let handle_request t ~queue_wait_us req =
  Obs.Registry.add_gauge "srv.http.in_flight" 1.0;
  let t0 = Obs.Clock.monotonic_ns () in
  (* GC attribution: the consumer's cumulative pause clock for this
     worker domain, read on both sides of the dispatch.  The delta is
     collector time that overlapped this request (late by at most one
     consumer poll interval; 0 when no [Obs.Events] consumer runs). *)
  let gc0 = Obs.Events.cumulative_pause_ns () in
  Fun.protect ~finally:(fun () ->
      Obs.Registry.add_gauge "srv.http.in_flight" (-1.0))
  @@ fun () ->
  let route = Router.label t.router req in
  let ctx =
    match Http.traceparent req with
    | Some ctx -> ctx
    | None -> Obs.Trace.generate ()
  in
  Obs.Trace.with_context ctx @@ fun () ->
  let resp =
    Obs.Span.with_ ~name:"srv.http.request" @@ fun () ->
    Resilience.Guard.protect ~fallback:Router.internal_error
      (fun () ->
        Resilience.Fault.inject "srv.http.handler";
        snd (Router.dispatch t.router req))
  in
  let status = Http.status resp in
  incr_requests ~route ~meth:(Http.meth_name req.Http.meth) ~status;
  let us = Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0) in
  let gc_pause_us =
    let us = float_of_int (Obs.Events.cumulative_pause_ns () - gc0) /. 1e3 in
    (* A consumer stopping mid-request can make the delta negative;
       clamp rather than poison the histogram. *)
    if Float.is_finite us && us >= 0.0 then us else 0.0
  in
  let route_labels = Obs.Labels.make [ ("route", route) ] in
  Obs.Registry.observe ~labels:route_labels "srv.http.latency_us" us;
  Obs.Registry.observe ~labels:route_labels "srv.http.queue_wait.us"
    queue_wait_us;
  if Obs.Events.running () then
    Obs.Registry.observe ~labels:route_labels "srv.http.gc_pause.us"
      gc_pause_us;
  (match t.config.access_log with
  | Some sink ->
      access_log_line sink ~ctx ~req ~status ~us ~queue_wait_us ~gc_pause_us
  | None -> ());
  Http.add_header resp ("traceparent", Obs.Trace.to_traceparent ctx)

(* Serve every request a connection carries, then close it.
   [config.max_conn_requests] bounds requests per connection; the read
   deadline bounds how long a worker waits for (the rest of) a
   request.  Peer write failures (reset, broken pipe) just end the
   connection. *)
let serve_connection t ~queue_wait_us fd =
  Obs.Registry.incr "srv.http.connections";
  let reader = Io.reader fd in
  let deadline () = Option.bind t.config.read_timeout_s (fun s -> Io.deadline_in s) in
  (* Only the connection's first request actually waited in the work
     queue; keep-alive successors are served as they arrive. *)
  let pending_wait = ref queue_wait_us in
  let rec loop served =
    match Http.read_request ~limits:t.config.limits reader (deadline ()) with
    | Http.Eof -> ()
    | Http.Error { status; reason } ->
        Obs.Registry.incr "srv.http.parse_errors";
        incr_requests ~route:Router.unmatched_label ~meth:"-" ~status;
        Http.write fd ~keep_alive:false (Http.json_error ~status reason)
    | Http.Request req ->
        let queue_wait_us = !pending_wait in
        pending_wait := 0.0;
        let resp = handle_request t ~queue_wait_us req in
        let served = served + 1 in
        let ka =
          Http.keep_alive req
          && (not (stopping t))
          && served < t.config.max_conn_requests
        in
        Http.write fd ~keep_alive:ka resp;
        if ka then loop served
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop 0 with Unix.Unix_error _ | Io.Timeout _ -> ())

(* {2 Listening and accepting} *)

let listen ~host ~port () =
  if port < 0 || port > 65535 then
    invalid_arg (Printf.sprintf "Pool.listen: port %d outside 0..65535" port);
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      invalid_arg (Printf.sprintf "Pool.listen: bad host %S" host)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Pool.bound_port: not an INET socket"

(* The overload answer, written from the accept loop itself: the
   queue is full, so the connection is refused in O(1) without
   touching a worker. *)
let shed fd =
  Obs.Registry.incr "srv.http.shed";
  incr_requests ~route:Router.unmatched_label ~meth:"-" ~status:503;
  (try
     Http.write fd ~keep_alive:false
       (Http.response
          ~headers:
            [ ("content-type", "application/json"); ("retry-after", "1") ]
          ~status:503 "{\"error\":\"server overloaded\"}\n")
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve t listen_fd =
  if stopping t then invalid_arg "Pool.serve: pool already stopped";
  (* A peer resetting mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let workers =
    List.init t.config.domains (fun _ ->
        Domain.spawn (fun () ->
            let rec work () =
              match queue_pop t.work with
              | Quit -> ()
              | Conn (fd, enqueued_ns) ->
                  let queue_wait_us =
                    Obs.Clock.ns_to_us
                      (Obs.Clock.elapsed_ns ~since:enqueued_ns)
                  in
                  (* A handler that raises must cost one response,
                     never the worker domain: an escaping exception
                     here would silently shrink the pool until the
                     final [Domain.join]. *)
                  Resilience.Guard.protect ~fallback:(fun _ -> ())
                    (fun () -> serve_connection t ~queue_wait_us fd);
                  work ()
            in
            work ()))
  in
  Atomic.set t.accepting true;
  (* Accept-loop housekeeping, run once per select tick (≤ 0.25 s
     apart): mirror the queue depth into the registry.  The accept
     loop is the gauge's single writer — gauges merge by summation
     across shards, so a second writing domain would double-count. *)
  let observe_tick () =
    Obs.Registry.set_gauge "srv.http.queue_depth"
      (float_of_int (queue_depth t.work));
    (* Daemon housekeeping (periodic snapshots, signal-driven log
       rotation) rides the same tick; it must never kill the accept
       loop. *)
    match t.config.tick with
    | None -> ()
    | Some f -> Resilience.Guard.protect ~fallback:(fun _ -> ()) f
  in
  let rec accept_loop () =
    if not (stopping t) then begin
      observe_tick ();
      (* Poll the stop flag between waits so [stop] from a signal
         handler takes effect within one tick. *)
      (match Unix.select [ listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
              ()
          | fd, _ ->
              if
                not
                  (queue_push t.work
                     (Conn (fd, Obs.Clock.monotonic_ns ())))
              then shed fd)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.accepting false;
      (* Drain: the Quit sentinels queue behind any accepted-but-unserved
         connections, so every queued request is answered before the
         workers exit. *)
      List.iter (fun _ -> ignore (queue_push t.work Quit)) workers;
      List.iter Domain.join workers)
    accept_loop
