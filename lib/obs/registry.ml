(* One registry per process.  Every mutation touches only the calling
   domain's shard (a plain Hashtbl reached through Domain.DLS), so
   instrument updates are contention-free; readers merge the shards.
   The only lock protects the shard list and the instrument
   declarations, both of which change rarely. *)

type key = string * Labels.t

type exemplar = { ex_trace : string; ex_value : float; ex_wall : float }

type hist = {
  h : Stats.Histogram.t;
  mutable sum : float;
  mutable exemplar : exemplar option;
}

type shard = {
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  hists : (key, hist) Hashtbl.t;
}

type hist_spec = { lo : float; hi : float; bins : int }

let mutex = Mutex.create ()
let shards : shard list ref = ref []

(* Declared instruments appear in snapshots even before their first
   update, so exports always carry a stable schema. *)
let declared_counters : (string, unit) Hashtbl.t = Hashtbl.create 16
let declared_gauges : (string, unit) Hashtbl.t = Hashtbl.create 16
let declared_hists : (string, unit) Hashtbl.t = Hashtbl.create 16

(* Bin layouts, shared by every shard and label set of a name; kept
   separate from [declared_hists] so creating a *labelled* histogram
   does not force a spurious unlabelled zero series into exports. *)
let hist_specs : (string, hist_spec) Hashtbl.t = Hashtbl.create 16

let default_spec = { lo = 0.0; hi = 1000.0; bins = 50 }

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let valid_name n =
  String.length n > 0
  && n.[0] <> '.'
  && n.[String.length n - 1] <> '.'
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' | '.' -> true | _ -> false)
       n

let check_name n =
  if not (valid_name n) then
    invalid_arg
      (Printf.sprintf
         "Obs.Registry: instrument name %S (want dotted lowercase, e.g. \
          \"cac.cache.hits\")"
         n)

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          counters = Hashtbl.create 32;
          gauges = Hashtbl.create 8;
          hists = Hashtbl.create 8;
        }
      in
      locked (fun () -> shards := s :: !shards);
      s)

let my_shard () = Domain.DLS.get shard_key

(* {2 Declarations} *)

let declare_counter name =
  check_name name;
  locked (fun () -> Hashtbl.replace declared_counters name ())

let declare_gauge name =
  check_name name;
  locked (fun () -> Hashtbl.replace declared_gauges name ())

let ensure_spec ?(lo = default_spec.lo) ?(hi = default_spec.hi)
    ?(bins = default_spec.bins) name =
  check_name name;
  if not (hi > lo && bins > 0) then
    invalid_arg "Obs.Registry: histogram needs hi > lo and bins > 0";
  locked (fun () ->
      (* First spec wins, so every shard agrees on the shape. *)
      if not (Hashtbl.mem hist_specs name) then
        Hashtbl.replace hist_specs name { lo; hi; bins })

let declare_histogram ?lo ?hi ?bins name =
  ensure_spec ?lo ?hi ?bins name;
  locked (fun () -> Hashtbl.replace declared_hists name ())

let set_histogram_spec = ensure_spec

let spec_of name =
  locked (fun () ->
      match Hashtbl.find_opt hist_specs name with
      | Some s -> s
      | None ->
          Hashtbl.replace hist_specs name default_spec;
          default_spec)

(* {2 Shard-local cells} *)

let counter_cell shard key =
  match Hashtbl.find_opt shard.counters key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace shard.counters key r;
      r

let gauge_cell shard key =
  match Hashtbl.find_opt shard.gauges key with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.replace shard.gauges key r;
      r

let hist_cell shard ((name, _) as key) =
  match Hashtbl.find_opt shard.hists key with
  | Some h -> h
  | None ->
      let { lo; hi; bins } = spec_of name in
      let h =
        { h = Stats.Histogram.create ~lo ~hi ~bins; sum = 0.0; exemplar = None }
      in
      Hashtbl.replace shard.hists key h;
      h

(* {2 Keyed updates (race-free from any domain)} *)

let incr ?(labels = Labels.empty) ?(by = 1) name =
  if by < 0 then invalid_arg "Obs.Registry.incr: counters are monotonic (by < 0)";
  let r = counter_cell (my_shard ()) (name, labels) in
  r := !r + by

let set_gauge ?(labels = Labels.empty) name v =
  let r = gauge_cell (my_shard ()) (name, labels) in
  r := v

let add_gauge ?(labels = Labels.empty) name v =
  let r = gauge_cell (my_shard ()) (name, labels) in
  r := !r +. v

(* Attach the current trace id (if the domain is inside a traced
   request) as an OpenMetrics exemplar.  The untraced path is a single
   option read — no allocation. *)
let stamp_exemplar cell x =
  match Trace.current () with
  | None -> ()
  | Some ctx ->
      cell.exemplar <-
        Some { ex_trace = ctx.Trace.trace_id; ex_value = x; ex_wall = Clock.wall () }

let observe ?(labels = Labels.empty) name x =
  let cell = hist_cell (my_shard ()) (name, labels) in
  Stats.Histogram.add cell.h x;
  cell.sum <- cell.sum +. x;
  stamp_exemplar cell x

(* {2 Handles: cache the (domain, cell) pair, re-resolve on domain
   change}

   The cache field holds an immutable pair, read once per update.  A
   domain only ever updates a cell it resolved from its {e own} shard,
   so even when two domains share one handle there is no write-write
   race on any cell — the worst case is a ping-pong of cache
   re-resolutions, each of which is a single (atomic-by-runtime)
   pointer store.  This stays allocation- and slot-free per update,
   unlike a [Domain.DLS] key per handle, which would leak a slot for
   every handle ever created (engines create handles per instance). *)

let domain_id () = (Domain.self () :> int)

(* One handle record for every instrument kind, generic in the cell;
   [cell_of] finds or creates the cell in a shard. *)
type 'cell handle = {
  name : string;
  labels : Labels.t;
  mutable cache : int * 'cell;  (* (domain, cell in that domain's shard) *)
}

let bind cell_of name labels =
  { name; labels; cache = (domain_id (), cell_of (my_shard ()) (name, labels)) }

let resolve cell_of t =
  let d = domain_id () in
  let (cached_d, cell) = t.cache in
  if cached_d = d then cell
  else begin
    let cell = cell_of (my_shard ()) (t.name, t.labels) in
    t.cache <- (d, cell);
    cell
  end

module Counter = struct
  type t = int ref handle

  let v ?(labels = Labels.empty) name =
    check_name name;
    if Labels.is_empty labels then declare_counter name;
    bind counter_cell name labels

  let incr ?(by = 1) t =
    if by < 0 then invalid_arg "Obs.Counter.incr: counters are monotonic (by < 0)";
    let r = resolve counter_cell t in
    r := !r + by

end

module Gauge = struct
  type t = float ref handle

  let v ?(labels = Labels.empty) name =
    check_name name;
    if Labels.is_empty labels then declare_gauge name;
    bind gauge_cell name labels

  let add t v =
    let r = resolve gauge_cell t in
    r := !r +. v

end

module Histogram = struct
  type t = hist handle

  let v ?(labels = Labels.empty) ?lo ?hi ?bins name =
    check_name name;
    if Labels.is_empty labels then declare_histogram ?lo ?hi ?bins name
    else ensure_spec ?lo ?hi ?bins name;
    bind hist_cell name labels

  let observe t x =
    let cell = resolve hist_cell t in
    Stats.Histogram.add cell.h x;
    cell.sum <- cell.sum +. x;
    stamp_exemplar cell x

end

(* {2 Snapshots} *)

type histogram_snapshot = {
  hlo : float;
  hhi : float;
  counts : int array;
  underflow : int;
  overflow : int;
  sum : float;
  count : int;
  exemplar : exemplar option;
}

type snapshot = {
  counters : (key * int) list;
  gauges : (key * float) list;
  histograms : (key * histogram_snapshot) list;
}

let snapshot_of_hist cell =
  {
    hlo = Stats.Histogram.lo cell.h;
    hhi = Stats.Histogram.hi cell.h;
    counts = Stats.Histogram.counts cell.h;
    underflow = Stats.Histogram.underflow cell.h;
    overflow = Stats.Histogram.overflow cell.h;
    sum = cell.sum;
    count = Stats.Histogram.total cell.h;
    exemplar = cell.exemplar;
  }

(* The freshest exemplar across shards represents the series. *)
let merge_exemplars a b =
  match (a, b) with
  | None, e | e, None -> e
  | Some ea, Some eb -> if eb.ex_wall >= ea.ex_wall then Some eb else Some ea

let merge_hist_snapshots a b =
  if (not (Float.equal a.hlo b.hlo)) || (not (Float.equal a.hhi b.hhi)) || Array.length a.counts <> Array.length b.counts
  then invalid_arg "Obs.Registry: histogram shards with incompatible shapes";
  {
    a with
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    underflow = a.underflow + b.underflow;
    overflow = a.overflow + b.overflow;
    sum = a.sum +. b.sum;
    count = a.count + b.count;
    exemplar = merge_exemplars a.exemplar b.exemplar;
  }

let compare_key ((na, la) : key) ((nb, lb) : key) =
  match String.compare na nb with 0 -> Labels.compare la lb | c -> c

let sorted_bindings merge tbl_of_shard declared zero shard_list =
  let acc : (key, 'v) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun shard ->
      Hashtbl.iter
        (fun key v ->
          match Hashtbl.find_opt acc key with
          | None -> Hashtbl.replace acc key v
          | Some prior -> Hashtbl.replace acc key (merge prior v))
        (tbl_of_shard shard))
    shard_list;
  Hashtbl.iter
    (fun name () ->
      let key = (name, Labels.empty) in
      if not (Hashtbl.mem acc key) then Hashtbl.replace acc key (zero name))
    declared;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let snapshot () =
  (* Snapshots are intended between or after parallel sections: value
     reads are atomic per cell, but racing with instrument *creation*
     on another domain is undefined (Hashtbl resize). *)
  let shard_list, declared_c, declared_g, declared_h, specs =
    locked (fun () ->
        ( !shards,
          Hashtbl.copy declared_counters,
          Hashtbl.copy declared_gauges,
          Hashtbl.copy declared_hists,
          Hashtbl.copy hist_specs ))
  in
  let counters =
    sorted_bindings ( + )
      (fun (s : shard) ->
        let out = Hashtbl.create (Hashtbl.length s.counters) in
        Hashtbl.iter (fun k r -> Hashtbl.replace out k !r) s.counters;
        out)
      declared_c (fun _ -> 0) shard_list
  in
  let gauges =
    sorted_bindings ( +. )
      (fun (s : shard) ->
        let out = Hashtbl.create (Hashtbl.length s.gauges) in
        Hashtbl.iter (fun k r -> Hashtbl.replace out k !r) s.gauges;
        out)
      declared_g (fun _ -> 0.0) shard_list
  in
  (* The GC figures are polled here rather than stored, so every
     snapshot carries fresh ones whichever domain takes it. *)
  let gauges =
    List.map (fun (name, v) -> ((name, Labels.empty), v)) (Runtime.gauges ())
    @ gauges
    |> List.sort (fun (a, _) (b, _) -> compare_key a b)
  in
  let zero_hist name =
    let { lo; hi; bins } =
      match Hashtbl.find_opt specs name with Some s -> s | None -> default_spec
    in
    {
      hlo = lo;
      hhi = hi;
      counts = Array.make bins 0;
      underflow = 0;
      overflow = 0;
      sum = 0.0;
      count = 0;
      exemplar = None;
    }
  in
  let histograms =
    sorted_bindings merge_hist_snapshots
      (fun (s : shard) ->
        let out = Hashtbl.create (Hashtbl.length s.hists) in
        Hashtbl.iter (fun k cell -> Hashtbl.replace out k (snapshot_of_hist cell)) s.hists;
        out)
      declared_h zero_hist shard_list
  in
  { counters; gauges; histograms }

let counter_value ?(labels = Labels.empty) name =
  let snap = snapshot () in
  match List.assoc_opt (name, labels) snap.counters with Some v -> v | None -> 0

let histogram_snapshot ?(labels = Labels.empty) name =
  let snap = snapshot () in
  List.assoc_opt (name, labels) snap.histograms
