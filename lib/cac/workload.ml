type spec = {
  arrival_rate : float;
  mean_holding : float;
  requests : int;
  mix : (Source_class.t * float) list;
}

let spec ?(mean_holding = 60.0) ~arrival_rate ~requests ~mix () =
  (* Holding first: a caller may derive the rate from it, and then a bad
     holding time would be reported as a bad rate. *)
  if not (mean_holding > 0.0 && Float.is_finite mean_holding) then
    invalid_arg "Workload.spec: mean_holding must be positive and finite";
  if not (arrival_rate > 0.0 && Float.is_finite arrival_rate) then
    invalid_arg "Workload.spec: arrival_rate must be positive and finite";
  if requests < 1 then invalid_arg "Workload.spec: requests < 1";
  if mix = [] || List.exists (fun (_, w) -> not (w > 0.0)) mix then
    invalid_arg "Workload.spec: mix must be non-empty with positive weights";
  { arrival_rate; mean_holding; requests; mix }

let offered_load s = s.arrival_rate *. s.mean_holding

type result = {
  offered : int;
  admitted : int;
  rejected : int;
  errors : int;
  degraded : int;
  blocking : float;
  steady_blocking : float;
  cache_hit_rate : float;
  steady_cache_hit_rate : float;
  mean_occupancy : float;
  peak_occupancy : int;
  final_occupancy : int;
  mean_latency_us : float;
  duration : float;
}

(* Binary min-heap of pending departures (time, connection id). *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable conns : int array;
    mutable size : int;
  }

  let create () = { times = Array.make 64 0.0; conns = Array.make 64 0; size = 0 }

  let swap h i j =
    let t = h.times.(i) and c = h.conns.(i) in
    h.times.(i) <- h.times.(j);
    h.conns.(i) <- h.conns.(j);
    h.times.(j) <- t;
    h.conns.(j) <- c

  let push h time conn =
    if h.size = Array.length h.times then begin
      let times = Array.make (2 * h.size) 0.0 in
      let conns = Array.make (2 * h.size) 0 in
      Array.blit h.times 0 times 0 h.size;
      Array.blit h.conns 0 conns 0 h.size;
      h.times <- times;
      h.conns <- conns
    end;
    h.times.(h.size) <- time;
    h.conns.(h.size) <- conn;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && h.times.((!i - 1) / 2) > h.times.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let peek_time h = if h.size = 0 then None else Some h.times.(0)

  let pop h =
    assert (h.size > 0);
    let conn = h.conns.(0) in
    h.size <- h.size - 1;
    h.times.(0) <- h.times.(h.size);
    h.conns.(0) <- h.conns.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.times.(l) < h.times.(!smallest) then smallest := l;
      if r < h.size && h.times.(r) < h.times.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    conn
end

let () =
  Obs.Registry.declare_counter "cac.workload.runs";
  Obs.Registry.declare_counter "cac.workload.requests";
  Obs.Registry.declare_counter "cac.workload.errors"

let pick_class rng mix =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
  let u = Numerics.Rng.float rng *. total in
  let rec scan acc = function
    | [] -> assert false
    | [ (cls, _) ] -> cls
    | (cls, w) :: rest ->
        let acc = acc +. w in
        if u < acc then cls else scan acc rest
  in
  scan 0.0 mix

(* The first 20% of requests warm the engine up; the steady-state
   figures cover the rest. *)
let warmup = 0.2

let run engine ~link s rng =
  Obs.Span.with_ ~name:"cac.workload.run" @@ fun () ->
  Obs.Registry.incr "cac.workload.runs";
  Obs.Registry.incr ~by:s.requests "cac.workload.requests";
  let departures = Heap.create () in
  let admitted = ref 0 and rejected = ref 0 and errors = ref 0 in
  let metrics = Engine.metrics engine in
  let start_fallbacks = Metrics.fallbacks metrics in
  let start_decisions = Metrics.decisions metrics in
  let start_latency_us = Metrics.latency_sum_us metrics in
  let warmup_boundary = int_of_float (warmup *. float_of_int s.requests) in
  let warm_rejected = ref 0 and warm_offered = ref 0 in
  let steady_cache_base = ref (Engine.cache_stats engine) in
  let start_cache = Engine.cache_stats engine in
  let occupancy_time = ref 0.0 in
  let peak = ref 0 in
  let now = ref 0.0 in
  let occupancy = ref (Link.connections (Engine.link engine link)) in
  let advance_to time =
    occupancy_time := !occupancy_time +. (float_of_int !occupancy *. (time -. !now));
    now := time
  in
  let drain_until time =
    let rec go () =
      match Heap.peek_time departures with
      | Some td when td <= time ->
          advance_to td;
          Engine.release engine ~conn:(Heap.pop departures);
          decr occupancy;
          go ()
      | _ -> ()
    in
    go ()
  in
  for request = 1 to s.requests do
    if request = warmup_boundary + 1 then
      steady_cache_base := Engine.cache_stats engine;
    let arrival = !now +. Numerics.Dist.exponential rng ~rate:s.arrival_rate in
    drain_until arrival;
    advance_to arrival;
    let cls = pick_class rng s.mix in
    (* Draw the holding time unconditionally so the random stream — and
       hence every later decision — is identical whatever this engine
       decides (sequential/parallel and cached/uncached equivalence). *)
    let holding = Numerics.Dist.exponential rng ~rate:(1.0 /. s.mean_holding) in
    let steady = request > warmup_boundary in
    if steady then incr warm_offered;
    (* An engine failure mid-decision is contained here, fail-closed:
       the request is counted as an error (not an admission), the
       workload keeps draining — one bad decision must never kill a
       million-request replay.  The [cac.workload.admit] point lets
       chaos runs inject exactly that failure mode. *)
    let decision =
      match
        Resilience.Fault.inject "cac.workload.admit";
        Engine.admit engine ~link ~cls
      with
      | d -> Some d
      | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
      | exception _ ->
          incr errors;
          Obs.Registry.incr "cac.workload.errors";
          None
    in
    match decision with
    | Some (Engine.Admitted conn) ->
        incr admitted;
        incr occupancy;
        peak := Stdlib.max !peak !occupancy;
        Heap.push departures (!now +. holding) conn
    | Some (Engine.Rejected _) ->
        incr rejected;
        if steady then incr warm_rejected
    | None -> if steady then incr warm_rejected
  done;
  let end_cache = Engine.cache_stats engine in
  let decided = Metrics.decisions metrics - start_decisions in
  {
    offered = s.requests;
    admitted = !admitted;
    rejected = !rejected;
    errors = !errors;
    degraded = Metrics.fallbacks metrics - start_fallbacks;
    blocking = float_of_int (!rejected + !errors) /. float_of_int s.requests;
    steady_blocking =
      (if !warm_offered = 0 then 0.0
       else float_of_int !warm_rejected /. float_of_int !warm_offered);
    cache_hit_rate =
      Decision_cache.hit_rate
        (Decision_cache.diff ~before:start_cache ~after:end_cache);
    steady_cache_hit_rate =
      Decision_cache.hit_rate
        (Decision_cache.diff ~before:!steady_cache_base ~after:end_cache);
    mean_occupancy = (if !now > 0.0 then !occupancy_time /. !now else 0.0);
    peak_occupancy = !peak;
    final_occupancy = !occupancy;
    mean_latency_us =
      (if decided = 0 then 0.0
       else
         (Metrics.latency_sum_us metrics -. start_latency_us)
         /. float_of_int decided);
    duration = !now;
  }
