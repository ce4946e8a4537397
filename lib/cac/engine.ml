module Guard = Resilience.Guard

type key =
  | Bop of { cls : string; b : float; c : float; n : int }
  | Eff_bw of { cls : string; total_buffer : float; target_clr : float; n : int }

(* Per-link registry instruments, bound when the link is added. *)
type link_telemetry = {
  t_admits : Obs.Registry.Counter.t;
  t_rejects : Obs.Registry.Counter.t;
  t_releases : Obs.Registry.Counter.t;
  t_connections : Obs.Registry.Gauge.t;
}

(* Every state mutation, as a value: what the durability journal
   records and what replay re-applies.  Class and link are referenced
   by name — the stable identifiers — so a journal survives process
   restarts. *)
type op =
  | Op_add_link of {
      id : string;
      capacity : float;
      buffer : float;
      target_clr : float;
    }
  | Op_admit of { conn : int; link : string; cls : string }
  | Op_release of int

type t = {
  links : (string, Link.t) Hashtbl.t;
  link_telemetry : (string, link_telemetry) Hashtbl.t;
  conns : (int, Link.t * Source_class.t) Hashtbl.t;
  cache : (key, float) Decision_cache.t;
  metrics : Metrics.t;
  clock : unit -> float;
  (* One circuit breaker per (link, class) pair, created on first
     kernel failure path use; see [breaker]. *)
  breakers : (string, Guard.Breaker.t) Hashtbl.t;
  mutable next_conn : int;
  (* The durability hook: called with each completed mutation, inside
     whatever critical section the caller runs the engine under.  Must
     not raise and must not block (Persist.Store pushes to an
     in-memory queue; the ack's barrier, outside the lock, does the
     I/O). *)
  mutable journal : (op -> unit) option;
}

type reject_reason = Unstable | Clr_exceeded

type decision = Admitted of int | Rejected of reject_reason

type verdict = {
  admissible : bool;
  reason : reject_reason option;
  log10_bop : float option;
  required_bw : float option;
  degraded : bool;
}

let create ?(cache_capacity = 4096) ?(clock = Obs.Clock.wall) () =
  {
    links = Hashtbl.create 8;
    link_telemetry = Hashtbl.create 8;
    conns = Hashtbl.create 256;
    cache = Decision_cache.create ~capacity:cache_capacity;
    metrics = Metrics.create ();
    clock;
    breakers = Hashtbl.create 16;
    next_conn = 0;
    journal = None;
  }

let set_journal t hook = t.journal <- hook
let journaled t = Option.is_some t.journal
let emit t op = match t.journal with None -> () | Some hook -> hook op

(* A link's dimensions go into the journal as JSON numbers, and JSON
   has no inf or nan: refuse them here, before any unit conversion
   (which asserts on a non-positive capacity). *)
let check_dimensions ~fn ~capacity ~buffer =
  if not (Float.is_finite capacity && capacity > 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.%s: capacity %g is not finite and > 0" fn capacity);
  if not (Float.is_finite buffer && buffer >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.%s: buffer %g is not finite and >= 0" fn buffer)

let add_link t ~id ~capacity ~buffer ~target_clr =
  check_dimensions ~fn:"add_link" ~capacity ~buffer;
  if Hashtbl.mem t.links id then
    invalid_arg (Printf.sprintf "Engine.add_link: duplicate link id %S" id);
  let link = Link.create ~id ~capacity ~buffer ~target_clr in
  Hashtbl.replace t.links id link;
  let labels = Obs.Labels.make [ ("link", id) ] in
  Hashtbl.replace t.link_telemetry id
    {
      t_admits = Obs.Registry.Counter.v ~labels "cac.engine.link.admits";
      t_rejects = Obs.Registry.Counter.v ~labels "cac.engine.link.rejects";
      t_releases = Obs.Registry.Counter.v ~labels "cac.engine.link.releases";
      t_connections = Obs.Registry.Gauge.v ~labels "cac.engine.link.connections";
    };
  emit t (Op_add_link { id; capacity; buffer; target_clr });
  link

let add_link_msec t ~id ~capacity ~buffer_msec ~target_clr =
  check_dimensions ~fn:"add_link_msec" ~capacity ~buffer:buffer_msec;
  let buffer =
    Queueing.Units.buffer_cells_of_msec ~msec:buffer_msec
      ~service_cells_per_frame:capacity ~ts:Traffic.Models.ts
  in
  add_link t ~id ~capacity ~buffer ~target_clr

let link t id =
  match Hashtbl.find_opt t.links id with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Engine: unknown link %S" id)

let links t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
  |> List.sort (fun a b -> String.compare (Link.id a) (Link.id b))

let mem_link t id = Hashtbl.mem t.links id

let link_telemetry t id = Hashtbl.find_opt t.link_telemetry id

(* {2 Decision primitives, memoised} *)

(* The finiteness check lives {e inside} the compute closure: a kernel
   returning NaN/inf raises before [find_or_add] can insert the entry,
   so numeric corruption can never poison the cache — the next
   decision recomputes instead of replaying the bad value. *)
let cached_log10_bop t (cls : Source_class.t) ~b ~c ~n =
  Decision_cache.find_or_add t.cache
    (Bop { cls = cls.Source_class.name; b; c; n })
    ~compute:(fun () ->
      Resilience.Guard.finite ~label:"cac.engine.log10_bop"
        (Core.Bahadur_rao.evaluate cls.Source_class.vg
           ~mu:(Source_class.mean cls) ~c ~b ~n)
          .Core.Bahadur_rao.log10_bop)

let cached_eff_bw t (cls : Source_class.t) ~total_buffer ~target_clr ~n =
  Decision_cache.find_or_add t.cache
    (Eff_bw { cls = cls.Source_class.name; total_buffer; target_clr; n })
    ~compute:(fun () ->
      Resilience.Guard.finite ~label:"cac.engine.eff_bw"
        (Core.Admission.effective_bandwidth_per_source cls.Source_class.vg
           ~mu:(Source_class.mean cls) ~n ~total_buffer ~target_clr))

(* {2 Containment}

   Every kernel evaluation runs once, behind the (link, class) circuit
   breaker, with a finiteness check on the result: a kernel that
   raises or returns NaN/inf registers as a breaker failure, and the
   decision falls back to peak-rate allocation — fail-closed, never
   fail-open.  The kernel is a pure function of its inputs, so running
   it again could only return the same answer. *)

let breaker t ~link_id ~(cls : Source_class.t) =
  let key = link_id ^ "/" ^ cls.Source_class.name in
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
      let b = Guard.Breaker.create () in
      Hashtbl.replace t.breakers key b;
      b

type breaker_snapshot = { b_link : string; b_class : string; b_state : string }

(* Keys are [link_id ^ "/" ^ class_name]; class names never contain
   '/', so split at the last one.  Sorted so [export] encodes
   deterministically. *)
let breakers t =
  Hashtbl.fold
    (fun key b acc ->
      match String.rindex_opt key '/' with
      | None -> acc
      | Some i ->
          {
            b_link = String.sub key 0 i;
            b_class = String.sub key (i + 1) (String.length key - i - 1);
            b_state = Guard.Breaker.state_name (Guard.Breaker.state b);
          }
          :: acc)
    t.breakers []
  |> List.sort (fun a b ->
         match String.compare a.b_link b.b_link with
         | 0 -> String.compare a.b_class b.b_class
         | c -> c)

let breaker_state t ~link:link_id ~cls =
  Option.map Guard.Breaker.state
    (Hashtbl.find_opt t.breakers (link_id ^ "/" ^ cls.Source_class.name))

let kernel_value t ~link_id ~cls f =
  Guard.Breaker.call (breaker t ~link_id ~cls) (fun () ->
      Guard.finite ~label:"cac.engine.kernel" (f ()))

(* The fail-closed fallback: price every connection of the candidate
   mix at its class's peak-rate proxy.  Deliberately independent of
   the variance-growth tables and iterative numerics — the degraded
   test must keep working when exactly those are broken. *)
let peak_required counts =
  List.fold_left
    (fun acc (c, n) -> acc +. (float_of_int n *. Source_class.peak c))
    0.0 counts

let degraded_verdict link counts =
  Guard.record_fallback ();
  let required = peak_required counts in
  (* [required] is finite by construction (class means/variances are
     validated at model build time); the comparison direction still
     rejects if it were not. *)
  let ok = required <= Link.capacity link in
  {
    admissible = ok;
    reason = (if ok then None else Some Clr_exceeded);
    log10_bop = None;
    required_bw = Some required;
    degraded = true;
  }

(* The candidate mix: the link's counts with one more [cls]. *)
let candidate_counts link ~cls =
  let bumped = ref false in
  let counts =
    List.map
      (fun (c, n) ->
        if c.Source_class.name = cls.Source_class.name then begin
          bumped := true;
          (c, n + 1)
        end
        else (c, n))
      (Link.counts link)
  in
  if !bumped then counts else (cls, 1) :: counts

let evaluate t ~link:link_id ~cls =
  let link = link t link_id in
  let counts = candidate_counts link ~cls in
  let mean_load =
    List.fold_left
      (fun acc (c, n) -> acc +. (float_of_int n *. Source_class.mean c))
      0.0 counts
  in
  let capacity = Link.capacity link in
  if mean_load >= capacity then
    {
      admissible = false;
      reason = Some Unstable;
      log10_bop = None;
      required_bw = None;
      degraded = false;
    }
  else begin
    match counts with
    | [ (only, n) ] -> (
        let nf = float_of_int n in
        match
          kernel_value t ~link_id ~cls:only (fun () ->
              cached_log10_bop t only ~b:(Link.buffer link /. nf)
                ~c:(capacity /. nf) ~n)
        with
        | Ok bop ->
            let ok = bop <= log10 (Link.target_clr link) in
            {
              admissible = ok;
              reason = (if ok then None else Some Clr_exceeded);
              log10_bop = Some bop;
              required_bw = None;
              degraded = false;
            }
        | Error _ -> degraded_verdict link counts)
    | mix -> (
        let rec total acc = function
          | [] -> Some acc
          | (c, n) :: rest -> (
              match
                kernel_value t ~link_id ~cls:c (fun () ->
                    cached_eff_bw t c ~total_buffer:(Link.buffer link)
                      ~target_clr:(Link.target_clr link) ~n)
              with
              | Ok eb -> total (acc +. (float_of_int n *. eb)) rest
              | Error _ -> None)
        in
        match total 0.0 mix with
        | Some required ->
            let ok = required <= capacity in
            {
              admissible = ok;
              reason = (if ok then None else Some Clr_exceeded);
              log10_bop = None;
              required_bw = Some required;
              degraded = false;
            }
        (* Any class's kernel failing degrades the whole decision:
           pricing part of a mix optimistically would fail open. *)
        | None -> degraded_verdict link counts)
  end

let admit t ~link:link_id ~cls =
  let started = t.clock () in
  let verdict = evaluate t ~link:link_id ~cls in
  let tel = link_telemetry t link_id in
  if verdict.degraded then Metrics.record_fallback t.metrics;
  if verdict.admissible then begin
    let l = link t link_id in
    (* Mutations are ordered so any late exception unwinds cleanly:
       the connection table entry goes in last, and a failure after
       [Link.add] rolls the link state back before re-raising — no
       half-admitted connection can survive. *)
    Link.add l ~cls;
    match
      let conn = t.next_conn in
      t.next_conn <- conn + 1;
      Hashtbl.replace t.conns conn (l, cls);
      conn
    with
    | conn ->
        Metrics.record_admit t.metrics ~latency:(t.clock () -. started);
        (match tel with
        | Some tel ->
            Obs.Registry.Counter.incr tel.t_admits;
            Obs.Registry.Gauge.add tel.t_connections 1.0
        | None -> ());
        emit t
          (Op_admit { conn; link = link_id; cls = cls.Source_class.name });
        Admitted conn
    | exception exn ->
        Link.remove l ~cls;
        raise exn
  end
  else begin
    Metrics.record_reject t.metrics ~latency:(t.clock () -. started);
    (match tel with
    | Some tel -> Obs.Registry.Counter.incr tel.t_rejects
    | None -> ());
    Rejected (Option.value verdict.reason ~default:Clr_exceeded)
  end

let release t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> invalid_arg (Printf.sprintf "Engine.release: unknown connection %d" conn)
  | Some (l, cls) ->
      Hashtbl.remove t.conns conn;
      Link.remove l ~cls;
      Metrics.record_release t.metrics;
      (match link_telemetry t (Link.id l) with
      | Some tel ->
          Obs.Registry.Counter.incr tel.t_releases;
          Obs.Registry.Gauge.add tel.t_connections (-1.0)
      | None -> ());
      emit t (Op_release conn)

let active_connections t = Hashtbl.length t.conns

let fill t ~link ~cls =
  let rec go admitted =
    match admit t ~link ~cls with
    | Admitted _ -> go (admitted + 1)
    | Rejected _ -> admitted
  in
  go 0

let metrics t = t.metrics
let cache_stats t = Decision_cache.stats t.cache

(* {2 Replay and state transfer}

   [apply] re-executes a journaled mutation without re-deciding it: no
   admission test, no admit/reject counters, no decision latency — a
   recovered engine must not double-count traffic it admitted in a
   previous life.  Only the live-connection gauge moves, since it
   describes current state rather than history. *)

let apply t op =
  if journaled t then
    invalid_arg "Engine.apply: journal hook armed (replay needs a cold engine)";
  match op with
  | Op_add_link { id; capacity; buffer; target_clr } ->
      ignore (add_link t ~id ~capacity ~buffer ~target_clr)
  | Op_admit { conn; link = link_id; cls } ->
      if Hashtbl.mem t.conns conn then
        invalid_arg
          (Printf.sprintf "Engine.apply: duplicate connection %d" conn);
      let l = link t link_id in
      let c = Source_class.of_name_exn cls in
      Link.add l ~cls:c;
      Hashtbl.replace t.conns conn (l, c);
      if conn >= t.next_conn then t.next_conn <- conn + 1;
      (match link_telemetry t link_id with
      | Some tel -> Obs.Registry.Gauge.add tel.t_connections 1.0
      | None -> ())
  | Op_release conn -> (
      match Hashtbl.find_opt t.conns conn with
      | None ->
          invalid_arg
            (Printf.sprintf "Engine.apply: unknown connection %d" conn)
      | Some (l, c) ->
          Hashtbl.remove t.conns conn;
          Link.remove l ~cls:c;
          (match link_telemetry t (Link.id l) with
          | Some tel -> Obs.Registry.Gauge.add tel.t_connections (-1.0)
          | None -> ()))

type link_state = {
  l_id : string;
  l_capacity : float;
  l_buffer : float;
  l_target_clr : float;
}

type conn_state = { c_conn : int; c_link : string; c_class : string }

type state = {
  s_links : link_state list;
  s_conns : conn_state list;
  s_breakers : breaker_snapshot list;
  s_next_conn : int;
}

(* Deterministic ordering everywhere: [export] must encode
   byte-identically for equal engine states, whatever insertion order
   the hash tables saw. *)
let export t =
  let s_links =
    links t
    |> List.map (fun l ->
           {
             l_id = Link.id l;
             l_capacity = Link.capacity l;
             l_buffer = Link.buffer l;
             l_target_clr = Link.target_clr l;
           })
  in
  let s_conns =
    Hashtbl.fold
      (fun conn (l, cls) acc ->
        { c_conn = conn; c_link = Link.id l; c_class = cls.Source_class.name }
        :: acc)
      t.conns []
    |> List.sort (fun a b -> Int.compare a.c_conn b.c_conn)
  in
  { s_links; s_conns; s_breakers = breakers t; s_next_conn = t.next_conn }

let restore t st =
  if journaled t then
    invalid_arg "Engine.restore: journal hook armed (restore needs a cold engine)";
  if Hashtbl.length t.links > 0 || Hashtbl.length t.conns > 0 then
    invalid_arg "Engine.restore: engine not empty";
  List.iter
    (fun ls ->
      ignore
        (add_link t ~id:ls.l_id ~capacity:ls.l_capacity ~buffer:ls.l_buffer
           ~target_clr:ls.l_target_clr))
    st.s_links;
  List.iter
    (fun cs ->
      apply t (Op_admit { conn = cs.c_conn; link = cs.c_link; cls = cs.c_class }))
    st.s_conns;
  List.iter
    (fun bs ->
      match
        (Guard.Breaker.state_of_name bs.b_state, Source_class.of_name bs.b_class)
      with
      | Some s, Some cls when Hashtbl.mem t.links bs.b_link ->
          Guard.Breaker.force (breaker t ~link_id:bs.b_link ~cls) s
      | _ -> ())
    st.s_breakers;
  if st.s_next_conn > t.next_conn then t.next_conn <- st.s_next_conn
