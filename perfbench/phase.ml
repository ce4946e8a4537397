(* What every workload shares: op tallies, the result record, and the
   timed phase — a fixed number of whole segments of a seeded op
   sequence. *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

type result = {
  tally : tally;
  checks : (string * bool) list;  (** named output checks *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  info : (string * Obs.Json.t) list;  (** run facts recorded with the result *)
}

(* One op: its index in the seeded sequence in, its latency (us) and
   whether its output passed the check out. *)
type op = int -> float * bool

let record tally ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

let run_ops tally (op : op) ~from ~count latencies =
  for j = from to from + count - 1 do
    let us, ok = op j in
    record tally ok;
    Option.iter (fun s -> Measure.Samples.add s us) latencies
  done

(* How many segments a run of [seconds] holds, from a workload's
   nominal throughput.  The count depends only on [seconds], never on
   how fast this host or this build is, so every run at the same
   [seconds] does the same ops — and leaves the same state behind (the
   daemon's latency sample array, for one). *)
let segments ~seconds ~nominal_ops_per_s ~segment_ops =
  max 1
    (Float.to_int
       (Float.round (float_of_int seconds *. nominal_ops_per_s /. float_of_int segment_ops)))

(* [segments] whole segments, each timed as [slices] equal slices;
   [before i] runs untimed ahead of segment [i].  Returns the op index
   after the last one, the per-op latencies and the slice durations. *)
let timed tally op ~from ~segment_ops ~slices ~segments ~before =
  let slice_ops = segment_ops / slices in
  let latencies = Measure.Samples.create () in
  let durations =
    Array.init (segments * slices) (fun i ->
        if i mod slices = 0 then before (i / slices);
        let t0 = Measure.now_ns () in
        run_ops tally op ~from:(from + (i * slice_ops)) ~count:slice_ops (Some latencies);
        Measure.since_s t0)
  in
  (from + (segments * segment_ops), latencies, durations)

(* Set-up timings in groups of [size], one group ahead of every
   [every]-th segment ([before] for {!timed}), so that set-up samples
   the host's quiet spells the way the slices do.  [setup] returns one
   set-up's time in seconds. *)
let setup_groups ~size ~every setup =
  let groups = ref [] in
  let before i =
    if i mod every = 0 then groups := Array.init size (fun _ -> setup ()) :: !groups
  in
  (before, fun () -> Array.of_list (List.rev !groups))

(* The end-to-end metrics every workload reports.  Each timing is the
   best one of the run: the highest slice throughput, the lowest slice
   p50 and the lowest segment p99 (a segment holds enough ops for ten
   beyond its p99; a slice may be shorter, to catch briefer quiet
   spells).  A shared host switches between a fast mode and one about
   1.5x slower for seconds to minutes at a time, and how much of a run
   falls in each decides any mean or median over it.  Every slice runs
   the same seeded work, so interference can only add time to it: the
   best slice is the closest reading of the program's own cost, and a
   change to the program moves it like every other slice.  [setup_s]
   is likewise the lowest median of a group of set-ups. *)
let end_to_end ~latencies ~segment_ops ~slices ~durations ~setup_groups ~rss_mb =
  let sl =
    Measure.slices ~latencies_us:latencies ~slice_ops:(segment_ops / slices)
      ~slice_s:durations
  in
  let p99s =
    Measure.segment_p99s ~latencies_us:latencies ~segment_ops
      ~count:(Array.length durations / slices)
  in
  let best pick f xs = Array.fold_left (fun acc x -> pick acc (f x)) (f xs.(0)) xs in
  let floats xs = Obs.Json.List (Array.to_list (Array.map (fun x -> Obs.Json.Float x) xs)) in
  ( [
      ("ops_per_s", best Float.max (fun s -> s.Measure.ops_per_s) sl, "1/s");
      ("p50_us", best Float.min (fun s -> s.Measure.p50_us) sl, "us");
      ("p99_us", best Float.min Fun.id p99s, "us");
      ("setup_s", best Float.min Measure.median setup_groups, "s");
      ("rss_mb", rss_mb, "MB");
    ],
    [
      ("slice_ops_per_s", floats (Array.map (fun s -> s.Measure.ops_per_s) sl));
      ("slice_p50_us", floats (Array.map (fun s -> s.Measure.p50_us) sl));
      ("segment_p99_us", floats p99s);
      ("setup_s", Obs.Json.List (Array.to_list (Array.map floats setup_groups)));
    ] )
