(* The two workloads driven over HTTP against a real [cts serve]:

   - decide_miss: POST /v1/decide on a daemon with the decision cache
     off, so every answer runs the Bahadur–Rao / effective-bandwidth
     kernel.  Five links span the paper's 0.5–30 ms buffer axis.
   - admit_churn: one op is POST /v1/admit then POST /v1/release of
     the oldest live connection of the admitted class, on a daemon
     journaling to a state directory.  Decisions are cache hits, so the op measures the
     serving path, the engine mutation and the journal handoff.

   The untraced run ([run]) reports end-to-end figures measured by
   the client.  The traced run ([trace]) replays the same seeded op
   sequence in-process, through the same public calls the daemon's
   handlers make, and times each one into a {!Ledger}. *)

let capacity = 16140.0 (* 30 sources x 538 cells/frame, the paper's N c *)
let target_clr = 1e-6

type link = {
  id : string;
  buffer_msec : float;
  preload : (string * int) list;  (** admitted in this order at setup *)
}

type spec = {
  name : string;
  links : link list;
  cache_capacity : int option;  (** [None]: the daemon's default *)
  persist : bool;
  segment_ops : int;
      (** ops per timed segment: whole key-list cycles, enough for a p99
          with at least ten ops beyond it *)
  nominal_ops_per_s : float;
      (** about the host's slow-mode throughput; sizes the timed phase *)
  warmup_ops : int;
  traced_ops : int;  (** in-process replay length, and daemon ops in traced mode *)
}

let z = "z0.975"
let dar = "dar3"

(* (link, class, weight): every pair once, plus extra copies of the
   pair whose cost sits mid-range, so the median of a cycle falls
   inside that pair's block. *)
let decide_keys =
  [
    ("b0.5", z, 1);
    ("b0.5", dar, 1);
    ("b2", z, 1);
    ("b2", dar, 1);
    ("b5", z, 1);
    ("b5", dar, 1);
    ("b10", z, 3);
    ("b10", dar, 1);
    ("b30", z, 1);
    ("b30", dar, 1);
  ]

let cycle_len = List.fold_left (fun n (_, _, w) -> n + w) 0 decide_keys

(* decide_miss: Z^0.975 (LRD) and its DAR(3) Markov fit on homogeneous
   and mixed links.  A decide of a link's own class on a homogeneous
   link is one Bahadur–Rao evaluation (~10 us); any other decide prices
   a mix by effective-bandwidth bisection (0.2–2 ms).  The key list
   weights the pairs so the median op lands inside one mix pair's cost
   block, clear of the cheap homogeneous mode (see [decide_keys]). *)
let decide_miss =
  {
    name = "decide_miss";
    links =
      [
        { id = "b0.5"; buffer_msec = 0.5; preload = [ (z, 20) ] };
        { id = "b2"; buffer_msec = 2.0; preload = [ (dar, 20) ] };
        { id = "b5"; buffer_msec = 5.0; preload = [ (z, 20) ] };
        { id = "b10"; buffer_msec = 10.0; preload = [ (z, 10); (dar, 10) ] };
        { id = "b30"; buffer_msec = 30.0; preload = [ (z, 10); (dar, 10) ] };
      ];
    cache_capacity = Some 0;
    persist = false;
    segment_ops = 100 * cycle_len;
    nominal_ops_per_s = 1200.0;
    warmup_ops = cycle_len;
    traced_ops = 20 * cycle_len;
  }

(* admit_churn: one 20 ms link preloaded with 10 Z^0.975 and 10 DAR(3)
   connections.  Each op admits one connection of a class drawn from a
   seeded permutation of a block of 10 + 10, then releases the oldest
   live connection of that class, so the live mix stays (10, 10) and
   every decision is one of two cache-resident heterogeneous states.
   The preload admits Z^0.975 first: pricing the LRD class as a single
   source in a mix (its effective bandwidth at n = 1 on a 20 ms buffer)
   costs ~1 s and ~60 MB, and the set-up must do the same work for
   every seed. *)
let window = 20

let admit_churn =
  {
    name = "admit_churn";
    links = [ { id = "oc3"; buffer_msec = 20.0; preload = [ (z, 10); (dar, 10) ] } ];
    cache_capacity = None;
    persist = true;
    segment_ops = 2000;
    nominal_ops_per_s = 5000.0;
    warmup_ops = 2000;
    traced_ops = 5000;
  }

(* The state directory lives in the checkout, on whatever disk that
   is.  A device fsync per ack, or per periodic snapshot, would put that
   disk's latency into the op, so the WAL syncs only at shutdown:
   [every:N] still makes each ack wait for the flusher domain to write
   its record, and checkpoints happen at boot and at drain. *)
let fsync_policy = "every:1000000"

(* {2 Seeded op sequences} *)

let shuffle ~seed a =
  let rng = Numerics.Rng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Numerics.Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let decide_cycle ~seed =
  shuffle ~seed
    (Array.of_list
       (List.concat_map
          (fun (link, cls, w) -> List.init w (fun _ -> (link, cls)))
          decide_keys))

let churn_block ~seed =
  shuffle ~seed (Array.init window (fun i -> if i < window / 2 then z else dar))

(* Live connection ids per class, oldest first. *)
module Live = struct
  type t = (string * int Queue.t) list

  let create () = [ (z, Queue.create ()); (dar, Queue.create ()) ]
  let push (t : t) cls conn = Queue.push conn (List.assoc cls t)
  let pop_oldest (t : t) cls = Queue.pop (List.assoc cls t)
  let count (t : t) = List.fold_left (fun n (_, q) -> n + Queue.length q) 0 t
end

(* {2 Wire bodies} *)

let link_class_body link cls =
  Obs.Json.to_string
    (Obs.Json.Obj [ ("link", Obs.Json.String link); ("class", Obs.Json.String cls) ])

let release_body conn =
  Obs.Json.to_string (Obs.Json.Obj [ ("conn", Obs.Json.Int conn) ])

(* {2 Output checks} *)

let num = function
  | Some (Obs.Json.Float x) -> Some x
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let same_float a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

let opt_float_matches expected got =
  match (expected, got) with
  | None, Some Obs.Json.Null -> true
  | Some x, g -> ( match num g with Some y -> same_float x y | None -> false)
  | None, _ -> false

let reason_name = function
  | Some Cac.Engine.Unstable -> Obs.Json.String "unstable"
  | Some Cac.Engine.Clr_exceeded -> Obs.Json.String "clr_exceeded"
  | None -> Obs.Json.Null

(* A decide answer equals the reference engine's verdict. *)
let verdict_matches (v : Cac.Engine.verdict) doc =
  let m name = Obs.Json.member name doc in
  m "admissible" = Some (Obs.Json.Bool v.admissible)
  && m "degraded" = Some (Obs.Json.Bool v.degraded)
  && m "reason" = Some (reason_name v.reason)
  && opt_float_matches v.log10_bop (m "log10_bop")
  && opt_float_matches v.required_bw (m "required_bw")

(* The response the daemon's decide handler builds. *)
let verdict_json (v : Cac.Engine.verdict) =
  let opt = function Some x -> Obs.Json.Float x | None -> Obs.Json.Null in
  Obs.Json.Obj
    [
      ("admissible", Obs.Json.Bool v.admissible);
      ("degraded", Obs.Json.Bool v.degraded);
      ("reason", reason_name v.reason);
      ("log10_bop", opt v.log10_bop);
      ("required_bw", opt v.required_bw);
    ]

(* {2 Engines} *)

let cls_exn name = Cac.Source_class.of_name_exn name

let add_links engine spec =
  List.iter
    (fun l ->
      ignore
        (Cac.Engine.add_link_msec engine ~id:l.id ~capacity
           ~buffer_msec:l.buffer_msec ~target_clr))
    spec.links

let preload_ops spec =
  List.concat_map
    (fun l ->
      List.concat_map (fun (cls, n) -> List.init n (fun _ -> (l.id, cls))) l.preload)
    spec.links

(* The in-process reference: same links, same preload. *)
let reference_engine spec =
  let engine =
    Cac.Engine.create ?cache_capacity:spec.cache_capacity ()
  in
  add_links engine spec;
  let ok =
    List.for_all
      (fun (link, cls) ->
        match Cac.Engine.admit engine ~link ~cls:(cls_exn cls) with
        | Cac.Engine.Admitted _ -> true
        | Cac.Engine.Rejected _ -> false)
      (preload_ops spec)
  in
  (engine, ok)

(* {2 The daemon side} *)

type daemon_run = {
  daemon : Daemon.t;
  client : Client.t;
  state_dir : string option;
  live : Live.t;
}

let daemon_args spec ~state_dir =
  [ "--host"; "127.0.0.1"; "--port"; "0"; "--domains"; "1"; "--access-log"; "/dev/null" ]
  @ (match spec.cache_capacity with
    | Some c -> [ "--cache-capacity"; string_of_int c ]
    | None -> [])
  @ (match state_dir with
    | Some d ->
        [ "--state-dir"; d; "--fsync-policy"; fsync_policy; "--snapshot-every"; "0" ]
    | None -> [])
  @ List.concat_map
      (fun l ->
        [ "--link"; Printf.sprintf "%s=%g:%g:%g" l.id capacity l.buffer_msec target_clr ])
      spec.links

let admit_conn client link cls =
  match Client.json (Client.post client "/v1/admit" (link_class_body link cls)) with
  | Ok doc -> (
      match (Obs.Json.member "admitted" doc, Obs.Json.member "conn" doc) with
      | Some (Obs.Json.Bool true), Some (Obs.Json.Int conn) -> Ok conn
      | _ -> Error ("admit refused: " ^ Obs.Json.to_string doc))
  | Error e -> Error e

(* Spawn, wait for the banner, preload.  Raises on any failure. *)
let setup_daemon spec ~exe ~tag =
  let state_dir =
    if spec.persist then begin
      let d =
        Filename.concat Measure.work_dir
          (Printf.sprintf "state-%s-%d-%s" spec.name (Unix.getpid ()) tag)
      in
      Measure.rm_rf d;
      Daemon.register_dir d;
      Some d
    end
    else None
  in
  let daemon = Daemon.start ~exe ~args:(daemon_args spec ~state_dir) in
  let client = Client.create ~port:daemon.Daemon.port in
  let live = Live.create () in
  List.iter
    (fun (link, cls) ->
      match admit_conn client link cls with
      | Ok conn -> Live.push live cls conn
      | Error e -> failwith ("preload: " ^ e))
    (preload_ops spec);
  { daemon; client; state_dir; live }

let teardown d =
  Client.close d.client;
  let clean = Daemon.stop d.daemon in
  (clean, d.state_dir)

let decide_op d ~cycle ~expected : Phase.op =
  let raws =
    Array.map
      (fun (link, cls) ->
        Client.request ~meth:"POST" ~path:"/v1/decide" (link_class_body link cls))
      cycle
  in
  fun j ->
    let k = j mod Array.length cycle in
    let t0 = Measure.now_ns () in
    let r = Client.call d.client raws.(k) in
    let us = Measure.since_us t0 in
    let ok =
      match Client.json r with
      | Ok doc -> verdict_matches (expected cycle.(k)) doc
      | Error _ -> false
    in
    (us, ok)

let churn_op d ~block : Phase.op =
  let raws =
    Array.map
      (fun cls -> Client.request ~meth:"POST" ~path:"/v1/admit" (link_class_body "oc3" cls))
      block
  in
  fun j ->
    let cls = block.(j mod window) in
    let t0 = Measure.now_ns () in
    let r = Client.call d.client raws.(j mod window) in
    let admit_us = Measure.since_us t0 in
    let admitted =
      match Client.json r with
      | Ok doc -> (
          match (Obs.Json.member "admitted" doc, Obs.Json.member "conn" doc) with
          | Some (Obs.Json.Bool true), Some (Obs.Json.Int conn) ->
              Live.push d.live cls conn;
              true
          | _ -> false)
      | Error _ -> false
    in
    (* A refused admit ends the op: releasing anyway would shrink the
       window the next decisions are priced on. *)
    if not admitted then (admit_us, false)
    else begin
      let raw =
        Client.request ~meth:"POST" ~path:"/v1/release"
          (release_body (Live.pop_oldest d.live cls))
      in
      let t1 = Measure.now_ns () in
      let r = Client.call d.client raw in
      let release_us = Measure.since_us t1 in
      let released =
        match Client.json r with
        | Ok doc -> Obs.Json.member "released" doc = Some (Obs.Json.Bool true)
        | Error _ -> false
      in
      (admit_us +. release_us, released)
    end

let make_op spec d ~seed ~expected =
  if spec.persist then churn_op d ~block:(churn_block ~seed)
  else decide_op d ~cycle:(decide_cycle ~seed) ~expected

(* The post-run checks that need the daemon: /healthz's live count
   (admit_churn), then a clean drain and — for a state directory —
   an offline replay that must hold exactly the client's live
   connections, so no acked admit was lost. *)
let finish_daemon spec d =
  let live = Live.count d.live in
  let health_ok =
    (not spec.persist)
    ||
    match Client.json (Client.get d.client "/healthz") with
    | Ok doc -> Obs.Json.member "connections" doc = Some (Obs.Json.Int live)
    | Error _ -> false
  in
  let clean, state_dir = teardown d in
  let replay_ok =
    match state_dir with
    | None -> true
    | Some dir ->
        let ok =
          match Persist.Recovery.verify ~dir with
          | Ok r -> r.Persist.Recovery.r_conns = live
          | Error _ -> false
        in
        Daemon.remove_dir dir;
        ok
  in
  [ ("healthz_connections", health_ok); ("clean_shutdown", clean); ("wal_replay", replay_ok) ]

let expected_of spec ~seed =
  let engine, ok = reference_engine spec in
  let table = Hashtbl.create 16 in
  let expected (link, cls) =
    match Hashtbl.find_opt table (link, cls) with
    | Some v -> v
    | None ->
        let v = Cac.Engine.evaluate engine ~link ~cls:(cls_exn cls) in
        Hashtbl.replace table (link, cls) v;
        v
  in
  (* Price every key before any timing starts. *)
  if not spec.persist then
    Array.iter (fun key -> ignore (expected key)) (decide_cycle ~seed);
  (expected, ok)

(* Three groups of three set-ups, spread over the timed phase. *)
let setup_group_size = 3
let setup_group_count = 3

let info spec d ~ops =
  [
    ("daemon_flags", Obs.Json.List (List.map (fun a -> Obs.Json.String a) ("serve" :: d.daemon.Daemon.args)));
    ("ops", Obs.Json.Int ops);
    ("client_connects", Obs.Json.Int d.client.Client.connects);
    ("segment_ops", Obs.Json.Int spec.segment_ops);
  ]

(* The untraced run: end-to-end figures. *)
let run spec ~exe ~seed ~seconds =
  let expected, ref_ok = expected_of spec ~seed in
  let tally = Phase.tally () in
  let d = setup_daemon spec ~exe ~tag:"measured" in
  (* Each timed set-up is a daemon of its own, stopped before the next
     segment starts. *)
  let setups = ref 0 in
  let setup () =
    incr setups;
    let t0 = Measure.now_ns () in
    let extra = setup_daemon spec ~exe ~tag:(string_of_int !setups) in
    let s = Measure.since_s t0 in
    let _, dir = teardown extra in
    Option.iter Daemon.remove_dir dir;
    s
  in
  let op = make_op spec d ~seed ~expected in
  let seg = spec.segment_ops and warm = spec.warmup_ops in
  let segments =
    Phase.segments ~seconds ~nominal_ops_per_s:spec.nominal_ops_per_s ~segment_ops:seg
  in
  let before, setup_groups =
    Phase.setup_groups ~size:setup_group_size
      ~every:(max 1 (segments / setup_group_count)) setup
  in
  Phase.run_ops tally op ~from:0 ~count:warm None;
  let next, latencies, durations =
    Phase.timed tally op ~from:warm ~segment_ops:seg ~slices:1 ~segments ~before
  in
  let rss = Daemon.rss_mb d.daemon in
  let inf = info spec d ~ops:(next - warm) in
  let checks = ("reference_preload", ref_ok) :: finish_daemon spec d in
  let metrics, seg_info =
    Phase.end_to_end ~latencies ~segment_ops:seg ~slices:1 ~durations
      ~setup_groups:(setup_groups ()) ~rss_mb:rss
  in
  { Phase.tally; checks; metrics; info = inf @ seg_info }

(* {2 The traced run} *)

(* The in-process twin of the daemon: engine, API mutex, and for
   admit_churn a journal store, wired as [cts serve] wires them.  The
   request path calls the same public functions as the daemon's
   handlers, each inside a ledger span. *)
type replay = {
  api : Srv.Cac_api.t;
  engine : Cac.Engine.t;
  store : Persist.Store.t option;
  mutable ledger : Ledger.t;
  wfd : Unix.file_descr;  (** requests are written here ... *)
  rd : Srv.Io.reader;  (** ... and parsed from the other end *)
  rfd : Unix.file_descr;
  live : Live.t;
  mutable decisions : int;
  mutable rejections : int;
}

let replay_dir spec = Filename.concat Measure.work_dir ("replay-" ^ spec.name)

let make_replay spec =
  let engine = Cac.Engine.create ?cache_capacity:spec.cache_capacity () in
  let api = Srv.Cac_api.create engine in
  let store =
    if spec.persist then begin
      let dir = replay_dir spec in
      Measure.rm_rf dir;
      Daemon.register_dir dir;
      let policy = Result.get_ok (Persist.Wal.policy_of_string fsync_policy) in
      Some (Persist.Store.open_ ~dir ~policy ~snapshot_every:0 ~next_seq:0)
    end
    else None
  in
  let wfd, rfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r =
    {
      api;
      engine;
      store;
      ledger = Ledger.create ~enabled:false;
      wfd;
      rd = Srv.Io.reader rfd;
      rfd;
      live = Live.create ();
      decisions = 0;
      rejections = 0;
    }
  in
  Option.iter
    (fun store ->
      Cac.Engine.set_journal engine
        (Some (fun op -> Ledger.span r.ledger "persist.journal" (fun () -> Persist.Store.journal store op))))
    store;
  add_links engine spec;
  List.iter
    (fun (link, cls) ->
      match Cac.Engine.admit engine ~link ~cls:(cls_exn cls) with
      | Cac.Engine.Admitted c -> Live.push r.live cls c
      | Cac.Engine.Rejected _ -> failwith "replay preload rejected")
    (preload_ops spec);
  r

let close_replay spec r =
  Option.iter
    (fun s ->
      Persist.Store.close s;
      Daemon.remove_dir (replay_dir spec))
    r.store;
  Unix.close r.wfd;
  Unix.close r.rfd

let str doc name =
  match Obs.Json.member name doc with Some (Obs.Json.String s) -> s | _ -> ""

(* One request through parse, decode, handler body, encode.  [handle]
   gets the decoded body and returns the response JSON. *)
let serve_one r raw handle =
  let l = r.ledger in
  Srv.Io.write_string r.wfd raw;
  let req =
    match Ledger.span l "http.parse" (fun () -> Srv.Http.read_request r.rd None) with
    | Srv.Http.Request req -> req
    | _ -> failwith "replay: request did not parse"
  in
  let doc =
    match Ledger.span l "json.decode" (fun () -> Obs.Json.of_string req.Srv.Http.body) with
    | Some doc -> doc
    | None -> failwith "replay: body did not decode"
  in
  let body = handle doc in
  let resp = Ledger.span l "json.encode" (fun () -> Srv.Http.json body) in
  ignore (Ledger.span l "http.encode" (fun () -> Srv.Http.to_string ~keep_alive:true resp))

(* [Cac_api]'s link check: build the link list under the engine lock. *)
let known_link r link =
  Ledger.span r.ledger "engine.links" (fun () ->
      Srv.Cac_api.with_engine r.api (fun e ->
          List.exists (fun l -> String.equal (Cac.Link.id l) link) (Cac.Engine.links e)))

let replay_decide r ~cycle ~expected j =
  let link, cls = cycle.(j mod Array.length cycle) in
  let raw = Client.request ~meth:"POST" ~path:"/v1/decide" (link_class_body link cls) in
  let ok = ref false in
  serve_one r raw (fun doc ->
      let link = str doc "link" and c = cls_exn (str doc "class") in
      if not (known_link r link) then failwith "replay: unknown link";
      let v =
        Ledger.span r.ledger "engine.evaluate" (fun () ->
            Srv.Cac_api.with_engine r.api (fun e -> Cac.Engine.evaluate e ~link ~cls:c))
      in
      r.decisions <- r.decisions + 1;
      if not v.admissible then r.rejections <- r.rejections + 1;
      ok := verdict_matches (expected (link, cls)) (verdict_json v);
      verdict_json v);
  !ok

let replay_churn r ~block j =
  let barrier () =
    Ledger.span r.ledger "persist.barrier" (fun () ->
        Option.iter Persist.Store.barrier r.store)
  in
  let admitted = ref false in
  let cls = block.(j mod window) in
  serve_one r
    (Client.request ~meth:"POST" ~path:"/v1/admit" (link_class_body "oc3" cls))
    (fun doc ->
      let link = str doc "link" and c = cls_exn (str doc "class") in
      if not (known_link r link) then failwith "replay: unknown link";
      r.decisions <- r.decisions + 1;
      match
        Ledger.span r.ledger "engine.admit" (fun () ->
            Srv.Cac_api.with_engine r.api (fun e -> Cac.Engine.admit e ~link ~cls:c))
      with
      | Cac.Engine.Admitted conn ->
          barrier ();
          Live.push r.live cls conn;
          admitted := true;
          Obs.Json.Obj [ ("admitted", Obs.Json.Bool true); ("conn", Obs.Json.Int conn) ]
      | Cac.Engine.Rejected reason ->
          r.rejections <- r.rejections + 1;
          Obs.Json.Obj [ ("admitted", Obs.Json.Bool false); ("reason", reason_name (Some reason)) ]);
  if !admitted then
    serve_one r
      (Client.request ~meth:"POST" ~path:"/v1/release"
         (release_body (Live.pop_oldest r.live cls)))
      (fun doc ->
        let conn = match Obs.Json.member "conn" doc with Some (Obs.Json.Int c) -> c | _ -> -1 in
        Ledger.span r.ledger "engine.release" (fun () ->
            Srv.Cac_api.with_engine r.api (fun e -> Cac.Engine.release e ~conn));
        barrier ();
        Obs.Json.Obj [ ("released", Obs.Json.Bool true) ]);
  !admitted

let counter name = float_of_int (Obs.Registry.counter_value name)

let gauge name =
  Option.value ~default:0.0
    (List.assoc_opt (name, Obs.Labels.empty) (Obs.Registry.snapshot ()).Obs.Registry.gauges)

let hist name =
  match Obs.Registry.histogram_snapshot name with
  | Some h -> (h.Obs.Registry.sum, float_of_int h.Obs.Registry.count)
  | None -> (0.0, 0.0)

let routes spec = if spec.persist then [ "/v1/admit"; "/v1/release" ] else [ "/v1/decide" ]

(* Daemon-side handler and queue-wait sums over the op routes. *)
let scrape_srv spec d =
  match Client.get d.client "/metrics" with
  | Ok { Client.status = 200; body } ->
      List.fold_left
        (fun (h, q) route ->
          let labels = Printf.sprintf "{route=\"%s\"}" route in
          ( h +. Daemon.prom_sum body ~name:"srv_http_latency_us" ~labels,
            q +. Daemon.prom_sum body ~name:"srv_http_queue_wait_us" ~labels ))
        (0.0, 0.0) (routes spec)
  | _ -> failwith "metrics scrape failed"

let trace spec ~exe ~seed =
  let expected, ref_ok = expected_of spec ~seed in
  let tally = Phase.tally () in
  (* 1. The daemon: client latency and the daemon's own handler and
     queue-wait sums over a fixed op count. *)
  let d = setup_daemon spec ~exe ~tag:"traced" in
  let op = make_op spec d ~seed ~expected in
  let n = spec.traced_ops in
  Phase.run_ops tally op ~from:0 ~count:spec.warmup_ops None;
  let h0, q0 = scrape_srv spec d in
  let lat = Measure.Samples.create () in
  Phase.run_ops tally op ~from:spec.warmup_ops ~count:n (Some lat);
  let h1, q1 = scrape_srv spec d in
  let client_us = Measure.mean (Measure.Samples.to_array lat) in
  let inf = info spec d ~ops:n in
  let checks = ("reference_preload", ref_ok) :: finish_daemon spec d in
  (* 2. In-process: an untraced replay for counts and the overhead
     baseline, then the same length traced. *)
  let r = make_replay spec in
  let replay_op =
    if spec.persist then replay_churn r ~block:(churn_block ~seed)
    else replay_decide r ~cycle:(decide_cycle ~seed) ~expected
  in
  let replay ~from =
    let t0 = Measure.now_ns () in
    for j = from to from + n - 1 do
      Ledger.set_op r.ledger j;
      Phase.record tally (replay_op j)
    done;
    Measure.since_ns t0
  in
  ignore (replay ~from:0);
  let evals0 = counter "bahadur_rao.evaluations"
  and iters0 = counter "bahadur_rao.infimum_iterations"
  and fsyncs0 = counter "persist.wal.fsyncs"
  and bytes0 = gauge "persist.wal.bytes"
  and eval_sum0, eval_n0 = hist "bahadur_rao.eval_us"
  and cache0 = Cac.Engine.cache_stats r.engine
  and words0 = Gc.minor_words () in
  r.decisions <- 0;
  r.rejections <- 0;
  let plain_ns = replay ~from:n in
  let words = Gc.minor_words () -. words0 in
  let eval_sum1, eval_n1 = hist "bahadur_rao.eval_us" in
  let cache = Cac.Decision_cache.diff ~before:cache0 ~after:(Cac.Engine.cache_stats r.engine) in
  let evals = counter "bahadur_rao.evaluations" -. evals0
  and iters = counter "bahadur_rao.infimum_iterations" -. iters0
  and fsyncs = counter "persist.wal.fsyncs" -. fsyncs0
  and bytes = gauge "persist.wal.bytes" -. bytes0 in
  let reject_ratio = Measure.per (float_of_int r.rejections) (float_of_int r.decisions) in
  r.ledger <- Ledger.create ~enabled:true;
  let traced_ns = replay ~from:(2 * n) in
  let ledger = r.ledger in
  close_replay spec r;
  Ledger.write ledger (Filename.concat Measure.work_dir ("spans-" ^ spec.name ^ ".jsonl"));
  let nf = float_of_int n in
  let per_op name = (Ledger.total ledger name).Ledger.dur_ns /. 1e3 /. nf in
  let self_per_op name = (Ledger.total ledger name).Ledger.self_ns /. 1e3 /. nf in
  let handler_us = (h1 -. h0) /. nf and queue_us = (q1 -. q0) /. nf in
  let in_handler =
    List.fold_left (fun acc name -> acc +. self_per_op name) 0.0
      [ "json.decode"; "engine.links"; "engine.evaluate"; "engine.admit"; "engine.release";
        "persist.journal"; "persist.barrier"; "json.encode" ]
  in
  let c = Ledger.per_call_us ledger in
  {
    Phase.tally;
    checks;
    metrics =
      [
        ("http.parse_us", c "http.parse", "us");
        ("http.encode_us", c "http.encode", "us");
        ("json.decode_us", c "json.decode", "us");
        ("json.encode_us", c "json.encode", "us");
        ("engine.links_us", c "engine.links", "us");
        ("engine.evaluate_us", c "engine.evaluate", "us");
        ("engine.admit_us", c "engine.admit", "us");
        ("engine.release_us", c "engine.release", "us");
        ("kernel.evals_per_op", evals /. nf, "count");
        ("kernel.iters_per_op", iters /. nf, "count");
        ("kernel.eval_us", Measure.per (eval_sum1 -. eval_sum0) (eval_n1 -. eval_n0), "us");
        ("cache.hit_ratio", Cac.Decision_cache.hit_rate cache, "ratio");
        ("engine.reject_ratio", reject_ratio, "ratio");
        ("persist.journal_us", c "persist.journal", "us");
        ("persist.barrier_us", c "persist.barrier", "us");
        ("persist.fsyncs_per_op", fsyncs /. nf, "count");
        ("persist.bytes_per_op", bytes /. nf, "bytes");
        ("srv.handler_us", handler_us, "us");
        ("srv.queue_wait_us", queue_us, "us");
        ("srv.other_us", handler_us -. in_handler, "us");
        ( "srv.transport_us",
          client_us -. handler_us -. queue_us -. per_op "http.parse" -. per_op "http.encode",
          "us" );
        ("gc.minor_words_per_op", words /. nf, "words");
        ("trace.overhead", traced_ns /. plain_ns, "ratio");
      ];
    info = inf @ [ ("replay_ops", Obs.Json.Int n); ("client_us_per_op", Obs.Json.Float client_us) ];
  }
