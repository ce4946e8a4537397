open Helpers

let test_roundtrip () =
  let z = (Traffic.Models.z ~a:0.9).Traffic.Models.process in
  let t = Traffic.Trace.of_process z ~ts:0.04 (rng ~seed:161 ()) ~n:500 in
  let path = Filename.temp_file "cts_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Traffic.Trace.save_csv t ~path;
      let back = Traffic.Trace.load_csv ~path in
      check_true "name preserved" (back.Traffic.Trace.name = t.Traffic.Trace.name);
      check_close ~tol:1e-12 "ts preserved" t.Traffic.Trace.ts back.Traffic.Trace.ts;
      check_int "length preserved"
        (Array.length t.Traffic.Trace.frames)
        (Array.length back.Traffic.Trace.frames);
      Array.iteri
        (fun i v ->
          check_close ~tol:0.0 (Printf.sprintf "frame %d" i) v
            back.Traffic.Trace.frames.(i))
        t.Traffic.Trace.frames)

let test_stats_and_aggregate () =
  let t =
    { Traffic.Trace.frames = [| 2.0; 4.0; 6.0; 8.0 |]; ts = 0.04; name = "t" }
  in
  check_close "mean" 5.0 (Traffic.Trace.mean t)

let test_acf () =
  let z = Traffic.Models.s ~a:0.975 ~p:1 in
  let t = Traffic.Trace.of_process z ~ts:0.04 (rng ~seed:163 ()) ~n:100_000 in
  let r = Traffic.Trace.acf t ~max_lag:1 in
  check_close ~tol:0.02 "trace acf lag 1" 0.821 r.(1)

let suite =
  [
    case "csv roundtrip" test_roundtrip;
    case "stats and aggregation" test_stats_and_aggregate;
    slow_case "trace acf" test_acf;
  ]
