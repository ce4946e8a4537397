(* GC-pause profiling over OCaml 5's runtime_events ring.

   [Obs.Runtime] reads [Gc.quick_stat] gauges — heap size, counts —
   but cannot say how long any collection stopped a domain, which is
   exactly what shapes the serving daemon's p99.  This module turns
   the ring into that profiler: a dedicated consumer domain subscribes
   to runtime phase begin/end pairs, folds each domain's outermost
   phase interval into a pause, and feeds per-domain pause histograms
   and counters into the registry.  Workers read the cumulative pause
   clock around a request to attribute tail latency to the collector
   (see Srv.Pool).

   One consumer per process (the [current] atomic); everything the
   consumer writes goes through the registry's own sharding, so no
   state here is shared except the per-ring atomics that workers poll. *)

module Re = Runtime_events

(* {2 Pause classification}

   A pause is the outermost runtime-phase interval on one ring
   (= domain): nested phases (EV_MINOR_LOCAL_ROOTS inside EV_MINOR,
   ...) ride inside it.  The label keeps cardinality at three. *)

type phase = Minor | Major | Other

let phase_name = function Minor -> "minor" | Major -> "major" | Other -> "other"

(* [None] = not pause time at all.  EV_DOMAIN_CONDITION_WAIT is the
   runtime's condvar wait — a worker blocked on an empty work queue
   sits in it for wall-clock stretches, which is idleness, not a GC
   pause; counting it would attribute a domain's entire idle time to
   the collector.  Likewise heap-reservation resizing is mmap
   bookkeeping, not collection. *)
let classify = function
  | Re.EV_MINOR | Re.EV_MINOR_LOCAL_ROOTS | Re.EV_MINOR_FINALIZED
  | Re.EV_MINOR_CLEAR | Re.EV_MINOR_FINALIZERS_OLDIFY
  | Re.EV_MINOR_GLOBAL_ROOTS | Re.EV_MINOR_LEAVE_BARRIER
  | Re.EV_MINOR_FINALIZERS_ADMIN | Re.EV_MINOR_REMEMBERED_SET
  | Re.EV_MINOR_REMEMBERED_SET_PROMOTE | Re.EV_MINOR_LOCAL_ROOTS_PROMOTE
  | Re.EV_EXPLICIT_GC_MINOR ->
      Some Minor
  | Re.EV_MAJOR | Re.EV_MAJOR_SWEEP | Re.EV_MAJOR_MARK_ROOTS
  | Re.EV_MAJOR_MARK | Re.EV_MAJOR_EPHE_MARK | Re.EV_MAJOR_EPHE_SWEEP
  | Re.EV_MAJOR_FINISH_MARKING | Re.EV_MAJOR_GC_CYCLE_DOMAINS
  | Re.EV_MAJOR_GC_PHASE_CHANGE | Re.EV_MAJOR_GC_STW
  | Re.EV_MAJOR_MARK_OPPORTUNISTIC | Re.EV_MAJOR_SLICE
  | Re.EV_MAJOR_FINISH_CYCLE | Re.EV_MAJOR_FINISH_SWEEPING
  | Re.EV_EXPLICIT_GC_MAJOR | Re.EV_EXPLICIT_GC_FULL_MAJOR
  | Re.EV_EXPLICIT_GC_COMPACT | Re.EV_EXPLICIT_GC_MAJOR_SLICE ->
      Some Major
  | Re.EV_DOMAIN_CONDITION_WAIT | Re.EV_DOMAIN_RESIZE_HEAP_RESERVATION
  | Re.EV_EXPLICIT_GC_SET | Re.EV_EXPLICIT_GC_STAT ->
      None
  | _ -> Some Other

(* Minor/Major are more informative than the STW scaffolding that
   wraps them (a minor collection runs {e inside} EV_STW_HANDLER, so
   the outermost interval alone would always read "other"). *)
let more_specific outer inner =
  match (outer, inner) with Other, (Minor | Major) -> inner | _ -> outer

type pause = {
  p_domain : int;  (* ring buffer index ≈ domain id; see the mli *)
  p_phase : phase;
  p_dur_ns : int64;
  p_wall : float;  (* consumer wall clock at completion *)
}

let pause_json p =
  Json.Obj
    [
      ("domain", Json.Int p.p_domain);
      ("phase", Json.String (phase_name p.p_phase));
      ("dur_us", Json.Float (Int64.to_float p.p_dur_ns /. 1e3));
      ("wall", Json.Float p.p_wall);
    ]

(* {2 Ring resolution}

   Events are keyed by ring buffer index, and the runtime recycles
   ring slots when domains die while [Domain.self] ids are never
   reused — so in a process that has ever joined a domain, a worker's
   id and its ring index diverge and "read my own ring's pause clock"
   needs a real mapping.  The handshake: an unresolved domain writes
   the "cts.ring" user event carrying its id; the event necessarily
   lands on that domain's own ring, so the consumer observes (ring,
   id) together and records the mapping.  Resolution costs one poll
   interval once per domain; until then the identity fallback serves
   (exact for processes that never join domains, like the daemon). *)

let ring_id_type : int Re.Type.t =
  Re.Type.register
    ~encode:(fun buf id ->
      Bytes.set_int64_le buf 0 (Int64.of_int id);
      8)
    ~decode:(fun buf len ->
      if len >= 8 then Int64.to_int (Bytes.get_int64_le buf 0) else -1)

type Re.User.tag += Cts_ring

let ring_user : int Re.User.t = Re.User.register "cts.ring" Cts_ring ring_id_type

(* domain id -> ring index, an immutable assoc list swapped by CAS.
   Entries never go stale (a live domain's ring never changes, dead
   domains' ids are never asked for again) and each domain looks its
   id up at most a handful of times before DLS-caching the answer, so
   list lookup is fine. *)
let ring_of_domain : (int * int) list Atomic.t = Atomic.make []

let rec resolve_ring ~ring ~id =
  if id >= 0 then begin
    let cur = Atomic.get ring_of_domain in
    if not (List.mem_assoc id cur) then
      if not (Atomic.compare_and_set ring_of_domain cur ((id, ring) :: cur))
      then resolve_ring ~ring ~id
  end

let resolved_ring : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The calling domain's ring index: DLS-cached once resolved; before
   that, (re)send the handshake and fall back to the identity map. *)
let my_ring () =
  let cache = Domain.DLS.get resolved_ring in
  match !cache with
  | Some r -> r
  | None -> (
      let id = (Domain.self () :> int) in
      match List.assoc_opt id (Atomic.get ring_of_domain) with
      | Some r ->
          cache := Some r;
          r
      | None ->
          (try Re.User.write ring_user id with _ -> ());
          id)

(* {2 Pause tracking}

   Per-ring nesting depth, outermost begin timestamp, and the
   classification of the phase that opened it.  A consumer that
   attaches mid-phase sees an unmatched end; depth stays at zero and
   the partial interval is dropped rather than mis-measured. *)

module Tracker = struct
  type ring_state = {
    mutable depth : int;
    mutable t0 : int64;
    mutable outer : phase;
  }

  type t = { states : (int, ring_state) Hashtbl.t; on_pause : pause -> unit }

  let create ~on_pause () = { states = Hashtbl.create 8; on_pause }

  let state t ring =
    match Hashtbl.find_opt t.states ring with
    | Some s -> s
    | None ->
        let s = { depth = 0; t0 = 0L; outer = Other } in
        Hashtbl.replace t.states ring s;
        s

  (* Ignored phases skip depth accounting on both sides (the same
     constructor is ignored at begin and end, so nesting stays
     balanced). *)
  let phase_begin t ring ts ph =
    match classify ph with
    | None -> ()
    | Some cls ->
        let s = state t ring in
        if s.depth = 0 then begin
          s.t0 <- Re.Timestamp.to_int64 ts;
          s.outer <- cls
        end
        else s.outer <- more_specific s.outer cls;
        s.depth <- s.depth + 1

  let phase_end t ring ts ph =
    match classify ph with
    | None -> ()
    | Some _ ->
        let s = state t ring in
        if s.depth > 0 then begin
          s.depth <- s.depth - 1;
          if s.depth = 0 then begin
            let dur = Int64.sub (Re.Timestamp.to_int64 ts) s.t0 in
            if Int64.compare dur 0L > 0 then
              t.on_pause
                {
                  p_domain = ring;
                  p_phase = s.outer;
                  p_dur_ns = dur;
                  p_wall = Clock.wall ();
                }
          end
        end

  let callbacks ~on_lost t =
    Re.Callbacks.create ~runtime_begin:(phase_begin t)
      ~runtime_end:(phase_end t) ~lost_events:on_lost ()
end

(* {2 Registry schema}

   Declared at module load so /metrics carries the names before the
   first pause.  The histogram covers 0–50 ms in µs: anything longer
   than a major slice budget overflows, which is itself the signal. *)

let () =
  Registry.declare_histogram ~lo:0.0 ~hi:50_000.0 ~bins:50
    "runtime.ev.gc.pause.us";
  Registry.declare_counter "runtime.ev.lost_events"

(* {2 The in-process consumer} *)

(* OCaml's runtime supports at most 128 live domains; ring indices
   stay below that. *)
let max_rings = 128

type t = {
  c_stop : bool Atomic.t;
  c_domain : unit Domain.t;
  c_pause_ns : int Atomic.t array;  (* cumulative, per ring *)
  c_top : pause list ref;  (* guarded by c_top_mutex, length <= top_capacity *)
  c_top_mutex : Mutex.t;
}

let top_capacity = 32

let current : t option Atomic.t = Atomic.make None

let running () = Atomic.get current <> None

(* Record one pause: the per-ring pause clock for request
   attribution, the registry for exports, the bounded top list for
   [debug_json].  Runs on the consumer domain only. *)
let record ~pause_ns ~top ~top_mutex p =
  if p.p_domain >= 0 && p.p_domain < max_rings then
    ignore
      (Atomic.fetch_and_add pause_ns.(p.p_domain)
         (Int64.to_int p.p_dur_ns));
  let labels =
    Labels.make
      [
        ("domain", string_of_int p.p_domain);
        ("phase", phase_name p.p_phase);
      ]
  in
  let us = Int64.to_float p.p_dur_ns /. 1e3 in
  if Float.is_finite us then
    Registry.observe ~labels "runtime.ev.gc.pause.us" us;
  Mutex.protect top_mutex (fun () ->
      let merged =
        List.sort
          (fun a b -> Int64.compare b.p_dur_ns a.p_dur_ns)
          (p :: !top)
      in
      top := List.filteri (fun i _ -> i < top_capacity) merged)

(* The consumer's read cadence: the most a pause can lag behind the
   request it overlapped. *)
let poll_interval_s = 0.005

let start () =
  match Atomic.get current with
  | Some t -> t
  | None ->
      Re.start ();
      Re.resume ();
      let stop_flag = Atomic.make false in
      let pause_ns = Array.init max_rings (fun _ -> Atomic.make 0) in
      let top = ref [] in
      let top_mutex = Mutex.create () in
      let domain =
        Domain.spawn (fun () ->
            (* An escaping exception would strand [stop] in
               [Domain.join]-after-death confusion; the consumer dies
               quietly and [stop] still joins it.  (This library sits
               below Resilience, so no Guard here.) *)
            try
              (* The cursor lives and dies on the consumer domain. *)
              let cursor = Re.create_cursor None in
              let tracker =
                Tracker.create
                  ~on_pause:(record ~pause_ns ~top ~top_mutex)
                  ()
              in
              let callbacks =
                Re.Callbacks.add_user_event ring_id_type
                  (fun ring _ts _ev id -> resolve_ring ~ring ~id)
                  (Tracker.callbacks
                     ~on_lost:(fun _ring n ->
                       Registry.incr ~by:(Stdlib.max 0 n)
                         "runtime.ev.lost_events")
                     tracker)
              in
              (* No condition variables: the stop flag is polled
                 between sleeps, so a stop can never be a lost wakeup
                 — worst case it waits one poll interval. *)
              let rec loop () =
                ignore (Re.read_poll cursor callbacks None);
                if not (Atomic.get stop_flag) then begin
                  Unix.sleepf poll_interval_s;
                  loop ()
                end
              in
              loop ();
              (* Final drain so pauses completed before [stop] are
                 never lost. *)
              ignore (Re.read_poll cursor callbacks None);
              Re.free_cursor cursor
            with _ -> ())
      in
      let t =
        {
          c_stop = stop_flag;
          c_domain = domain;
          c_pause_ns = pause_ns;
          c_top = top;
          c_top_mutex = top_mutex;
        }
      in
      Atomic.set current (Some t);
      t

let stop t =
  if not (Atomic.exchange t.c_stop true) then begin
    Domain.join t.c_domain;
    Atomic.set current None;
    (* Leave the ring allocated (start is sticky in the runtime) but
       stop paying for event generation until the next [start]. *)
    Re.pause ()
  end

let with_consumer f default =
  match Atomic.get current with None -> default | Some t -> f t

(* Short-circuit before [my_ring]: with no consumer there is nobody
   to answer the handshake, and the off path should cost one atomic
   load, not a DLS lookup plus a dead ring write. *)
let cumulative_pause_ns () =
  with_consumer
    (fun t ->
      let ring = my_ring () in
      if ring >= 0 && ring < max_rings then Atomic.get t.c_pause_ns.(ring)
      else 0)
    0

let top_pauses () =
  with_consumer
    (fun t -> Mutex.protect t.c_top_mutex (fun () -> !(t.c_top)))
    []

let debug_json () =
  with_consumer
    (fun _ ->
      Json.Obj
        [
          ("running", Json.Bool true);
          ("poll_interval_s", Json.Float poll_interval_s);
          ("top_pauses", Json.List (List.map pause_json (top_pauses ())));
        ])
    (Json.Obj [ ("running", Json.Bool false) ])
