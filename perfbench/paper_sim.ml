(* paper_sim: the simulation half of the repo, in-process.

   One op is one [Queueing.Scenario.clr_curve] call as Figs. 8–10 make
   it: Z^0.975 sources, N = 30, c = 538 cells/frame, the 0.5–30 ms
   buffer axis, 2 replications of [frames] frames, seed = run seed + op
   index.  The model's generators pass through a counting wrapper
   around [spawn] (and, traced, a timing one), which is how the source
   layer ([Traffic]) is separated from the multiplexer
   ([Queueing.Fluid_mux], [Queueing.Replication]). *)

let n = Experiments.Common.n_main
let c = Experiments.Common.c_main
let frames = 10
let reps = 2
let buffers_msec = Experiments.Common.practical_buffers_msec
(* A segment of 1000 ops leaves ten ops beyond its p99.  Its
   throughput and median are timed in slices of 250 ops (~2 s), short
   enough that most runs hold one quiet spell of the host. *)
let segment_ops = 1000
let slices = 4
(* About the host's slow-mode throughput; sizes the timed phase. *)
let nominal_ops_per_s = 130.0
let traced_ops = 200

(* Source-layer accounting, shared by every generator of a run. *)
type sources = {
  timed : bool;
  mutable spawns : int;
  mutable spawn_ns : float;
  mutable frames_drawn : int;
  mutable cells : float;
  mutable frame_ns : float;
}

let sources ~timed =
  { timed; spawns = 0; spawn_ns = 0.0; frames_drawn = 0; cells = 0.0; frame_ns = 0.0 }

let wrap (p : Traffic.Process.t) s =
  let spawn rng =
    let t0 = Measure.now_ns () in
    let next = p.Traffic.Process.spawn rng in
    if s.timed then s.spawn_ns <- s.spawn_ns +. Measure.since_ns t0;
    s.spawns <- s.spawns + 1;
    if s.timed then (fun () ->
      let t0 = Measure.now_ns () in
      let x = next () in
      s.frame_ns <- s.frame_ns +. Measure.since_ns t0;
      s.frames_drawn <- s.frames_drawn + 1;
      s.cells <- s.cells +. x;
      x)
    else (fun () ->
      let x = next () in
      s.frames_drawn <- s.frames_drawn + 1;
      s.cells <- s.cells +. x;
      x)
  in
  { p with Traffic.Process.spawn }

(* Model construction: the composite Z^0.975 model and its scenario. *)
let build s =
  let model = Traffic.Models.z ~a:0.975 in
  let scenario =
    Queueing.Scenario.make ~model:(wrap model.Traffic.Models.process s) ~n ~c
      ~ts:Traffic.Models.ts
  in
  (model, scenario)

(* Set-up as timed: model construction plus one bank of [n] source
   generators, the state a simulation holds before its first frame.
   Each starts from an empty minor heap, so each does the same work
   whatever the collector was doing before. *)
let setup ~seed () =
  Gc.minor ();
  let t0 = Measure.now_ns () in
  let model, _ = build (sources ~timed:false) in
  let rng = Numerics.Rng.create ~seed in
  let bank =
    Array.init n (fun i ->
        model.Traffic.Models.process.Traffic.Process.spawn
          (Numerics.Rng.jump_to_substream rng i))
  in
  ignore (Sys.opaque_identity bank);
  Measure.since_s t0

(* Every CLR lies in [0, 1] and, with common random numbers across
   buffers, is non-increasing in buffer size. *)
let clr_ok (curve : Stats.Ci.interval array) =
  let ok = ref true in
  Array.iteri
    (fun i (iv : Stats.Ci.interval) ->
      let x = iv.Stats.Ci.point in
      if not (x >= 0.0 && x <= 1.0) then ok := false;
      if i > 0 && x > curve.(i - 1).Stats.Ci.point then ok := false)
    curve;
  !ok

let op scenario ~seed j =
  clr_ok
    (Queueing.Scenario.clr_curve scenario ~buffers_msec ~frames ~reps ~seed:(seed + j))

(* The mean source frame size the simulator actually drew, against the
   model's 500 cells/frame. *)
let mean_frame_ok s =
  let m = Measure.per s.cells (float_of_int s.frames_drawn) in
  Float.abs (m -. Traffic.Models.frame_mean) <= 0.05 *. Traffic.Models.frame_mean

(* A set-up takes well under a millisecond: a group of 13 ahead of
   every segment. *)
let setup_group_size = 13

let run ~seed ~seconds =
  let tally = Phase.tally () in
  let s = sources ~timed:false in
  let _, scenario = build s in
  let timed_op j =
    let t0 = Measure.now_ns () in
    let ok = op scenario ~seed j in
    (Measure.since_us t0, ok)
  in
  Phase.run_ops tally timed_op ~from:0 ~count:1 None;
  let segments = Phase.segments ~seconds ~nominal_ops_per_s ~segment_ops in
  let before, setup_groups = Phase.setup_groups ~size:setup_group_size ~every:1 (setup ~seed) in
  let next, latencies, durations =
    Phase.timed tally timed_op ~from:1 ~segment_ops ~slices ~segments ~before
  in
  let metrics, seg_info =
    Phase.end_to_end ~latencies ~segment_ops ~slices ~durations
      ~setup_groups:(setup_groups ())
      ~rss_mb:(Measure.vm_hwm_mb "self")
  in
  {
    Phase.tally;
    checks = [ ("mean_frame_size", mean_frame_ok s) ];
    metrics;
    info =
      seg_info
      @ [
        ("ops", Obs.Json.Int (next - 1));
        ("frames", Obs.Json.Int frames);
        ("reps", Obs.Json.Int reps);
        ("segment_ops", Obs.Json.Int segment_ops);
      ];
  }

(* FBNDP alone: the LRD component of the composite, frame by frame. *)
let fbndp_frame_ns (model : Traffic.Models.composite) ~seed =
  let p = Traffic.Fbndp.process model.Traffic.Models.fbndp ~ts:Traffic.Models.ts in
  let next = p.Traffic.Process.spawn (Numerics.Rng.create ~seed) in
  let count = 20_000 in
  let t0 = Measure.now_ns () in
  let acc = ref 0.0 in
  for _ = 1 to count do
    acc := !acc +. next ()
  done;
  ignore (Sys.opaque_identity !acc);
  Measure.since_ns t0 /. float_of_int count

let trace ~seed =
  let tally = Phase.tally () in
  (* Untraced: the overhead baseline and the allocation count. *)
  let _, scenario = build (sources ~timed:false) in
  let words0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  for j = 0 to traced_ops - 1 do
    Phase.record tally (op scenario ~seed j)
  done;
  let plain_ns = Measure.since_ns t0 in
  let words = Gc.minor_words () -. words0 in
  (* Traced: each op a span, its spawns and frames aggregate children. *)
  let s = sources ~timed:true in
  let model, scenario = build s in
  let ledger = Ledger.create ~enabled:true in
  let t0 = Measure.now_ns () in
  for j = 0 to traced_ops - 1 do
    Ledger.set_op ledger j;
    let spawns = s.spawns and spawn_ns = s.spawn_ns in
    let drawn = s.frames_drawn and frame_ns = s.frame_ns in
    let ok =
      Ledger.span ledger "queueing.clr_curve" (fun () ->
          let ok = op scenario ~seed j in
          Ledger.aggregate ledger "traffic.spawn" ~calls:(s.spawns - spawns)
            ~ns:(s.spawn_ns -. spawn_ns);
          Ledger.aggregate ledger "traffic.source_frame" ~calls:(s.frames_drawn - drawn)
            ~ns:(s.frame_ns -. frame_ns);
          ok)
    in
    Phase.record tally ok
  done;
  let traced_ns = Measure.since_ns t0 in
  Ledger.write ledger (Filename.concat Measure.work_dir "spans-paper_sim.jsonl");
  let op_total = Ledger.total ledger "queueing.clr_curve" in
  let agg_frames = float_of_int (traced_ops * frames * reps) in
  let source_ns = s.frame_ns +. s.spawn_ns in
  {
    Phase.tally;
    checks = [ ("mean_frame_size", mean_frame_ok s) ];
    metrics =
      [
        ("traffic.source_frame_ns", Measure.per s.frame_ns (float_of_int s.frames_drawn), "ns");
        ("traffic.spawn_us", Measure.per (s.spawn_ns /. 1e3) (float_of_int s.spawns), "us");
        ("traffic.share", Measure.per source_ns op_total.Ledger.dur_ns, "ratio");
        ("traffic.fbndp_frame_ns", fbndp_frame_ns model ~seed, "ns");
        ("queueing.frame_ns", (op_total.Ledger.self_ns) /. agg_frames, "ns");
        ("gc.minor_words_per_op", words /. float_of_int traced_ops, "words");
        ("gc.minor_words_per_frame", words /. agg_frames, "words");
        ("trace.overhead", traced_ns /. plain_ns, "ratio");
      ];
    info =
      [
        ("ops", Obs.Json.Int traced_ops);
        ("frames", Obs.Json.Int frames);
        ("reps", Obs.Json.Int reps);
      ];
  }
