open Helpers

let test_units_roundtrip () =
  let cells =
    Queueing.Units.buffer_cells_of_msec ~msec:10.0
      ~service_cells_per_frame:16140.0 ~ts:0.04
  in
  check_close_rel ~tol:1e-12 "10 msec at 30x538" 4035.0 cells;
  let back =
    Queueing.Units.buffer_msec_of_cells ~cells ~service_cells_per_frame:16140.0
      ~ts:0.04
  in
  check_close ~tol:1e-9 "roundtrip" 10.0 back

let test_fluid_step_cases () =
  (* Below service: drains, no loss. *)
  let w, lost =
    Queueing.Fluid_mux.finite_buffer_step ~w:10.0 ~arrivals:5.0 ~service:8.0
      ~buffer:100.0
  in
  check_close "drain" 7.0 w;
  check_close "no loss" 0.0 lost;
  (* Empties completely. *)
  let w, lost =
    Queueing.Fluid_mux.finite_buffer_step ~w:2.0 ~arrivals:1.0 ~service:8.0
      ~buffer:100.0
  in
  check_close "empty" 0.0 w;
  check_close "no loss when emptying" 0.0 lost;
  (* Overflow. *)
  let w, lost =
    Queueing.Fluid_mux.finite_buffer_step ~w:95.0 ~arrivals:20.0 ~service:8.0
      ~buffer:100.0
  in
  check_close "capped at buffer" 100.0 w;
  check_close "overflow volume" 7.0 lost

let test_fluid_no_loss_when_underloaded () =
  let a = rng ~seed:141 () in
  let next_frame () = Numerics.Rng.float_range a ~lo:0.0 ~hi:7.9 in
  let r =
    Queueing.Fluid_mux.clr ~next_frame ~service:8.0 ~buffer:50.0 ~frames:10_000 ()
  in
  check_close "no loss below capacity" 0.0 r.Queueing.Fluid_mux.clr

let test_fluid_dd1_exact () =
  (* Deterministic arrivals above service with zero buffer: the loss
     rate is exactly (a - c)/a after the first frame fills nothing. *)
  let next_frame () = 10.0 in
  let r =
    Queueing.Fluid_mux.clr ~next_frame ~service:8.0 ~buffer:0.0 ~frames:5_000 ()
  in
  check_close ~tol:1e-12 "deterministic overload" 0.2 r.Queueing.Fluid_mux.clr

let test_fluid_multi_matches_single () =
  let model = Traffic.Models.s ~a:0.975 ~p:1 in
  let run buffers =
    let gen =
      (Traffic.Process.replicate model 5).Traffic.Process.spawn
        (rng ~seed:143 ())
    in
    Queueing.Fluid_mux.clr_multi ~next_frame:gen ~service:2690.0 ~buffers
      ~frames:20_000 ()
  in
  let multi = run [| 100.0; 500.0 |] in
  let single0 = (run [| 100.0 |]).(0) in
  check_close ~tol:1e-12 "multi-buffer equals single run"
    single0.Queueing.Fluid_mux.clr multi.(0).Queueing.Fluid_mux.clr;
  check_true "bigger buffer loses less"
    (multi.(1).Queueing.Fluid_mux.clr <= multi.(0).Queueing.Fluid_mux.clr)

let test_cell_mux_underload () =
  (* Constant 5 cells per frame per source, service 100 > 3*5. *)
  let sources = Array.init 3 (fun _ () -> 5.0) in
  let r =
    Queueing.Cell_mux.clr ~sources ~service_cells_per_frame:100.0
      ~buffer_cells:10 ~ts:0.04 ~frames:200 ()
  in
  check_int "no cells lost" 0 r.Queueing.Cell_mux.lost_cells;
  check_int "offered counted" (3 * 5 * 200) r.Queueing.Cell_mux.offered_cells

let test_cell_mux_deterministic_overload () =
  (* One source sends 20 cells/frame; service 10 cells/frame, buffer 0:
     arrivals come at spacing ts/20, departures every ts/10, so half
     the cells are dropped asymptotically. *)
  let sources = [| (fun () -> 20.0) |] in
  let r =
    Queueing.Cell_mux.clr ~sources ~service_cells_per_frame:10.0 ~buffer_cells:0
      ~ts:0.04 ~frames:2_000 ()
  in
  (* Floating-point ties between departure and arrival instants move a
     few percent of cells either way; the fluid answer is exactly 1/2. *)
  check_close ~tol:0.1 "about half lost" 0.5 r.Queueing.Cell_mux.clr

let test_fluid_vs_cell_agree () =
  (* Stochastic scenario with sizable losses: the two models must agree
     to within a few percent of offered load. *)
  let model = Traffic.Models.s ~a:0.9 ~p:1 in
  let n = 5 in
  let service = float_of_int n *. 520.0 in
  let buffer = 200.0 in
  let frames = 20_000 in
  let master = rng ~seed:147 () in
  let gen =
    (Traffic.Process.replicate model n).Traffic.Process.spawn
      (Numerics.Rng.jump_to_substream master 0)
  in
  let fluid =
    Queueing.Fluid_mux.clr ~next_frame:gen ~service ~buffer ~frames ()
  in
  let sources =
    Array.init n (fun i ->
        model.Traffic.Process.spawn
          (Numerics.Rng.jump_to_substream
             (Numerics.Rng.jump_to_substream master 0)
             i))
  in
  let cell =
    Queueing.Cell_mux.clr ~sources ~service_cells_per_frame:service
      ~buffer_cells:(int_of_float buffer) ~ts:0.04 ~frames ()
  in
  (* Same random numbers feed both models, so the comparison is paired. *)
  check_close ~tol:0.1
    (Printf.sprintf "fluid %.4f vs cell %.4f" fluid.Queueing.Fluid_mux.clr
       cell.Queueing.Cell_mux.clr)
    1.0
    ((fluid.Queueing.Fluid_mux.clr +. 1e-4)
    /. (cell.Queueing.Cell_mux.clr +. 1e-4))

let test_replication_deterministic () =
  let f rng = Numerics.Rng.float rng in
  let a = Queueing.Replication.runs ~seed:3 ~reps:5 f in
  let b = Queueing.Replication.runs ~seed:3 ~reps:5 f in
  check_true "same seed, same replications" (a = b);
  let c = Queueing.Replication.runs ~seed:4 ~reps:5 f in
  check_true "different seed differs" (a <> c)

let test_scenario () =
  let model = Traffic.Models.s ~a:0.9 ~p:1 in
  let s = Queueing.Scenario.make ~model ~n:30 ~c:538.0 ~ts:0.04 in
  check_close "service" 16140.0 (Queueing.Scenario.service s);
  let buffers = Queueing.Scenario.buffers_of_msec s [| 10.0 |] in
  check_close_rel ~tol:1e-12 "buffer msec conversion" 4035.0 buffers.(0)

(* A paper_sim-shaped CLR curve (Figs. 8-10: Z^0.975, N = 30, the
   practical buffer axis), short enough to run in a test, pinned to the
   bit: every source stream, the multiplexer and the replication CIs
   feed it.  c = 515 keeps every point above zero at this length. *)
let test_clr_curve_pinned () =
  let model = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let scenario = Queueing.Scenario.make ~model ~n:30 ~c:515.0 ~ts:Traffic.Models.ts in
  let curve =
    Queueing.Scenario.clr_curve scenario
      ~buffers_msec:Experiments.Common.practical_buffers_msec ~frames:300 ~reps:2
      ~seed:1996
  in
  let expected =
    [|
      (0x1.5fff48355aa92p-9, 0x1.e7750ee448d76p-6);
      (0x1.51babaf4e6d3ap-9, 0x1.de7ba1d1d167fp-6);
      (0x1.40ef39df2ccbbp-9, 0x1.d5d10fca7e131p-6);
      (0x1.3023b8c972c4p-9, 0x1.cd267dc32abe5p-6);
      (0x1.1f5837b3b8bc3p-9, 0x1.c47bebbbd769fp-6);
      (0x1.146c42948a423p-9, 0x1.b70925a672639p-6);
      (0x1.0edc2c67f74dep-9, 0x1.ae334e181a945p-6);
      (0x1.03bc000ed1657p-9, 0x1.9c879efb6af65p-6);
      (0x1.f137a76b56f9dp-10, 0x1.8adbefdebb583p-6);
      (0x1.daf74eb90b28ap-10, 0x1.793040c20bb9ep-6);
      (0x1.b996c9ad996fp-10, 0x1.5eaeba17044c9p-6);
      (0x1.81f5ebefdbe41p-10, 0x1.3281844f4d40ep-6);
      (0x1.4a550e321e592p-10, 0x1.06544e8796353p-6);
      (0x1.12b4307460ce4p-10, 0x1.b44e317fbe531p-7);
    |]
  in
  check_int "one point per buffer" (Array.length expected) (Array.length curve);
  Array.iteri
    (fun i (point, half_width) ->
      let msec = Experiments.Common.practical_buffers_msec.(i) in
      check_bits (Printf.sprintf "CLR at %g ms" msec) point curve.(i).Stats.Ci.point;
      check_bits (Printf.sprintf "half-width at %g ms" msec) half_width
        curve.(i).Stats.Ci.half_width)
    expected

let suite =
  [
    case "units roundtrip" test_units_roundtrip;
    case "fluid step cases" test_fluid_step_cases;
    case "fluid: no loss when underloaded" test_fluid_no_loss_when_underloaded;
    case "fluid: deterministic overload exact" test_fluid_dd1_exact;
    case "fluid: multi-buffer pass" test_fluid_multi_matches_single;
    case "cell mux: underload" test_cell_mux_underload;
    case "cell mux: deterministic overload" test_cell_mux_deterministic_overload;
    slow_case "fluid vs cell-level agreement" test_fluid_vs_cell_agree;
    case "replication determinism" test_replication_deterministic;
    case "scenario wiring" test_scenario;
    case "paper_sim-shaped CLR curve, pinned bits" test_clr_curve_pinned;
    qcheck ~count:50 "CLR decreasing in service rate"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed_offset ->
        let model = Traffic.Models.s ~a:0.9 ~p:1 in
        let run service =
          let gen =
            (Traffic.Process.replicate model 5).Traffic.Process.spawn
              (rng ~seed:(1000 + seed_offset) ())
          in
          (Queueing.Fluid_mux.clr ~next_frame:gen ~service ~buffer:100.0
             ~frames:2_000 ())
            .Queueing.Fluid_mux.clr
        in
        (* Common random numbers make the comparison monotone surely. *)
        run 2700.0 <= run 2600.0 +. 1e-12);
    qcheck "fluid step conserves volume"
      QCheck2.Gen.(
        quad (float_range 0.0 100.0) (float_range 0.0 50.0)
          (float_range 1.0 30.0) (float_range 0.0 100.0))
      (fun (w, arrivals, service, buffer) ->
        let w = Stdlib.min w buffer in
        let w', lost =
          Queueing.Fluid_mux.finite_buffer_step ~w ~arrivals ~service ~buffer
        in
        (* What entered either left, stayed, or was dropped; served
           volume is capped by service. *)
        let served = w +. arrivals -. w' -. lost in
        w' >= 0.0 && w' <= buffer && lost >= 0.0
        && served >= -1e-9
        && served <= service +. 1e-9);
  ]
