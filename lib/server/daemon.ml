(* The serve lifecycle: boot in recovery order, bind last, serve,
   drain.  Every resource [start] acquires is released on its error
   paths, so a failed boot leaves the state directory reopenable. *)

type config = {
  host : string;
  port : int;
  domains : int option;
  queue_capacity : int;
  read_timeout_s : float option;
  max_body : int;
  links : (string * float * float * float) list;
  cache_capacity : int;
  state_dir : string option;
  fsync_policy : Persist.Wal.policy;
  snapshot_every : int;
  access_log : string option;
  trace : string option;
}

(* A log file SIGHUP reopens by path.  The access log reads [sink] per
   line, so a rotation swaps the file under running workers without
   tearing a line; the trace file is Obs.Span's sink. *)
type log = { path : string; sink : Obs.Sink.t Atomic.t; trace : bool }

type t = {
  api : Cac_api.t;
  pool : Pool.t;
  domains : int;
  listen_fd : Unix.file_descr;
  store : Persist.Store.t option;
  logs : log list;
  hup : bool Atomic.t;  (* set by [reopen_logs], cleared by the tick *)
  (* Superseded sinks: a worker may still be writing its line, so they
     are closed only after the drain. *)
  retired : Obs.Sink.t list ref;
}

(* Swap [sink] in; returns the sink it replaces. *)
let install log sink =
  if log.trace then Obs.Span.set_trace_sink sink;
  Atomic.exchange log.sink sink

let open_sink flag path =
  Obs.Sink.Channel (open_out_gen [ Open_wronly; Open_creat; flag ] 0o644 path)

let close_sink = function
  | Obs.Sink.Channel oc -> close_out_noerr oc
  | Obs.Sink.Null -> ()

let close_logs logs retired =
  List.iter (fun log -> close_sink (install log Obs.Sink.Null)) logs;
  List.iter close_sink retired

(* The access log appends; the trace file starts empty, as it does
   under every command. *)
let open_logs c =
  let opened = ref [] in
  let open_log (path, flag, trace) =
    let log = { path; sink = Atomic.make Obs.Sink.Null; trace } in
    ignore (install log (open_sink flag path));
    opened := log :: !opened
  in
  match
    List.iter open_log
      (List.filter_map Fun.id
         [
           Option.map (fun p -> (p, Open_append, false)) c.access_log;
           Option.map (fun p -> (p, Open_trunc, true)) c.trace;
         ])
  with
  | () -> Ok !opened
  | exception Sys_error msg ->
      close_logs !opened [];
      Error ("cannot open " ^ msg)

let rotate logs retired =
  List.iter
    (fun log ->
      match open_sink Open_append log.path with
      | sink -> retired := install log sink :: !retired
      | exception Sys_error msg ->
          Printf.eprintf
            "cts serve: cannot reopen %s: %s (keeping the old sink)\n%!"
            log.path msg)
    logs

(* A failed checkpoint loses nothing: the journal still holds every op
   since the last good one. *)
let checkpoint ~what = function
  | Ok covers -> Some covers
  | Error e ->
      Printf.eprintf
        "cts serve: %s failed: %s (journal remains authoritative)\n%!" what e;
      None

let snapshot api store =
  Persist.Store.snapshot store ~with_engine:(Cac_api.with_engine api)

(* Recover into the cold engine, then open the store on the next
   segment and journal every later mutation. *)
let recover c engine =
  match c.state_dir with
  | None -> Ok None
  | Some dir -> (
      match Persist.Recovery.recover ~dir engine with
      | Error e ->
          Error (Printf.sprintf "state recovery failed (fail closed): %s" e)
      | Ok r -> (
          match
            Persist.Store.open_ ~dir ~policy:c.fsync_policy
              ~snapshot_every:c.snapshot_every
              ~next_seq:r.Persist.Recovery.r_next_seq
          with
          | exception Sys_error msg -> Error msg
          | exception (Unix.Unix_error _ as e) ->
              Error
                (Printf.sprintf "cannot open state dir %s: %s" dir
                   (Printexc.to_string e))
          | store ->
              Cac.Engine.set_journal engine (Some (Persist.Store.journal store));
              Obs.Sink.printf
                "cts serve: durable state in %s (fsync %s, snapshot every %d \
                 ops)\n"
                dir
                (Persist.Wal.policy_name c.fsync_policy)
                c.snapshot_every;
              Obs.Sink.printf
                "cts serve: recovered %d links, %d connections (%d records \
                 applied, %d skipped, %d torn tails)\n"
                r.Persist.Recovery.r_links r.Persist.Recovery.r_conns
                r.Persist.Recovery.r_applied r.Persist.Recovery.r_skipped
                r.Persist.Recovery.r_torn;
              Ok (Some (store, r))))

(* The /debug/vars sections the daemon contributes: live pool state,
   the GC-pause consumer (present whether or not it runs, so clients
   can tell "off" from "absent"), and the store with its boot-time
   recovery report. *)
let add_debug_providers c api pool ~domains persist =
  let add name f = ignore (Cac_api.add_debug_provider api ~name f) in
  add "server" (fun () ->
      Obs.Json.Obj
        [
          ("domains", Obs.Json.Int domains);
          ("queue_capacity", Obs.Json.Int c.queue_capacity);
          ("accepting", Obs.Json.Bool (Pool.accepting pool));
        ]);
  add "events" Obs.Events.debug_json;
  Option.iter
    (fun (store, report) ->
      add "persist" (fun () ->
          match Persist.Store.debug_json store with
          | Obs.Json.Obj fields ->
              Obs.Json.Obj
                (fields @ [ ("recovery", Persist.Recovery.report_json report) ])
          | j -> j))
    persist

let start c =
  match open_logs c with
  | Error e -> Error e
  | Ok logs -> (
      let fail store e =
        Option.iter Persist.Store.close store;
        close_logs logs [];
        Error e
      in
      (* A negative cache capacity is refused here, after the logs
         opened: [fail] closes them. *)
      match
        let engine = Cac.Engine.create ~cache_capacity:c.cache_capacity () in
        (engine, recover c engine)
      with
      | exception Invalid_argument msg -> fail None msg
      | _, Error e -> fail None e
      | engine, Ok persist -> (
          let store = Option.map fst persist in
          (* Recovered links win over configured ones; the rest are
             added, and journaled, now. *)
          let existing = List.map Cac.Link.id (Cac.Engine.links engine) in
          match
            List.iter
              (fun (id, capacity, buffer_msec, target_clr) ->
                if not (List.mem id existing) then
                  ignore
                    (Cac.Engine.add_link_msec engine ~id ~capacity ~buffer_msec
                       ~target_clr))
              c.links
          with
          | exception Invalid_argument msg -> fail store msg
          | () -> (
              let api =
                Cac_api.create
                  ?barrier:(Option.map (fun s () -> Persist.Store.barrier s) store)
                  engine
              in
              (* Boot checkpoint: fold the replayed journal into a fresh
                 snapshot so the old segments compact away at once. *)
              Option.iter
                (fun s ->
                  ignore (checkpoint ~what:"boot snapshot" (snapshot api s)))
                store;
              let hup = Atomic.make false and retired = ref [] in
              (* Runs on the accept-loop domain once per poll tick: the
                 signal handler only set [hup]; the I/O happens here. *)
              let tick () =
                if Atomic.exchange hup false then begin
                  Obs.Sink.printf "cts serve: SIGHUP — reopening log sinks\n";
                  rotate logs retired
                end;
                let with_engine = Cac_api.with_engine api in
                Option.bind store (Persist.Store.maybe_snapshot ~with_engine)
                |> Option.iter (fun r -> ignore (checkpoint ~what:"snapshot" r))
              in
              let config =
                {
                  Pool.default_config with
                  domains =
                    Option.value c.domains ~default:Pool.default_config.Pool.domains;
                  queue_capacity = c.queue_capacity;
                  read_timeout_s = c.read_timeout_s;
                  limits = { Http.default_limits with max_body = c.max_body };
                  (* Without a file, the human sink: a Null one silences it. *)
                  access_log =
                    Some
                      (match List.find_opt (fun log -> not log.trace) logs with
                      | Some log -> fun () -> Atomic.get log.sink
                      | None -> Obs.Sink.human_sink);
                  tick = Some tick;
                }
              in
              match Pool.create ~config (Cac_api.router api) with
              | exception Invalid_argument msg -> fail store msg
              | pool -> (
                  match Pool.listen ~host:c.host ~port:c.port () with
                  | exception (Unix.Unix_error _ as e) ->
                      fail store
                        (Printf.sprintf "cannot listen on %s:%d: %s" c.host c.port
                           (Printexc.to_string e))
                  | exception Invalid_argument msg -> fail store msg
                  | listen_fd ->
                      let domains = config.Pool.domains in
                      add_debug_providers c api pool ~domains persist;
                      Ok { api; pool; domains; listen_fd; store; logs; hup; retired }))))

let port d = Pool.bound_port d.listen_fd
let domains d = d.domains
let links d = Cac_api.with_engine d.api Cac.Engine.links
let stop d = Pool.stop d.pool
let reopen_logs d = Atomic.set d.hup true

(* The shutdown snapshot runs strictly after [Pool.serve] returns, i.e.
   after every worker domain has joined, so an admit racing the drain
   is either fully journaled and checkpointed or was refused. *)
let serve d =
  if not (Pool.stopping d.pool) then Pool.serve d.pool d.listen_fd;
  (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
  Option.iter
    (fun s ->
      Option.iter
        (fun covers ->
          Obs.Sink.printf "cts serve: shutdown snapshot covers segment %d\n"
            covers)
        (checkpoint ~what:"shutdown snapshot" (snapshot d.api s));
      Persist.Store.close s)
    d.store;
  close_logs d.logs !(d.retired)
