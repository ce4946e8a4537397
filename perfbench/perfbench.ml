(* perfbench: the repo's end-to-end benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--cts EXE]

   Workloads: decide_miss, admit_churn, paper_sim (see README.md).
   With --trace 0 the run reports the end-to-end metrics; with
   --trace 1 it reports the per-layer ledger instead.  The last line
   of stdout is one JSON object {correct, attempted, failed, metrics};
   the line before it records the run's facts (seed, op counts, host
   calibration, daemon flags).  Exit status 1 when an output check
   fails or the run cannot complete. *)

(* The per-layer metrics, by name and unit, as BENCHMARK.json at the
   root of the checkout declares them. *)
let per_layer () =
  let fail () = failwith "BENCHMARK.json: no per_layer list" in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Option.bind (Obs.Json.of_string text) (Obs.Json.member "per_layer") with
  | Some (Obs.Json.List ms) ->
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.String name), Some (Obs.Json.String unit) -> (name, unit)
          | _ -> fail ())
        ms
  | _ -> fail ()

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  cts : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload decide_miss|admit_churn|paper_sim --seed N \
     --seconds S --trace 0|1 [--cts EXE]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = int_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = String.equal v "1" } rest
    | "--cts" :: v :: rest -> go { a with cts = v } rest
    | [] -> a
    | _ -> usage ()
  in
  match
    go
      { workload = ""; seed = 1; seconds = 10; trace = false;
        cts = "_build/default/bin/cts_cli.exe" }
      (List.tl (Array.to_list argv))
  with
  | a when a.seconds >= 1 -> a
  | _ -> usage ()
  | exception Failure _ -> usage ()

let run a =
  match (a.workload, a.trace) with
  | "decide_miss", false ->
      Http_workloads.run Http_workloads.decide_miss ~exe:a.cts ~seed:a.seed ~seconds:a.seconds
  | "decide_miss", true -> Http_workloads.trace Http_workloads.decide_miss ~exe:a.cts ~seed:a.seed
  | "admit_churn", false ->
      Http_workloads.run Http_workloads.admit_churn ~exe:a.cts ~seed:a.seed ~seconds:a.seconds
  | "admit_churn", true -> Http_workloads.trace Http_workloads.admit_churn ~exe:a.cts ~seed:a.seed
  | "paper_sim", false -> Paper_sim.run ~seed:a.seed ~seconds:a.seconds
  | "paper_sim", true -> Paper_sim.trace ~seed:a.seed
  | _ -> usage ()

let () =
  let a = parse Sys.argv in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Daemon.cleanup;
  let die _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle die);
  Sys.set_signal Sys.sigint (Sys.Signal_handle die);
  let fail e =
    Printf.eprintf "perfbench: %s: %s\n%!" a.workload (Printexc.to_string e);
    exit 1
  in
  let per_layer = match per_layer () with l -> l | exception e -> fail e in
  Measure.ensure_work_dir ();
  let calib = Measure.calib_ms () in
  let r = match run a with r -> r | exception e -> fail e in
  (* Per-layer metrics a workload's path does not touch read 0. *)
  let metrics =
    if a.trace then
      List.map
        (fun (name, unit) ->
          let v =
            if String.equal name "host.calib_ms" then calib
            else
              match List.find_opt (fun (n, _, _) -> String.equal n name) r.Phase.metrics with
              | Some (_, v, _) -> v
              | None -> 0.0
          in
          (name, v, unit))
        per_layer
    else r.Phase.metrics
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let checks = ("metrics_finite", finite) :: r.Phase.checks in
  let tally = r.Phase.tally in
  let correct = tally.Phase.failed = 0 && List.for_all snd checks in
  let error_rate =
    Measure.per (float_of_int tally.Phase.failed) (float_of_int tally.Phase.attempted)
  in
  Printf.printf "perfbench %s seed %d trace %d: %d ops, %d failed\n" a.workload a.seed
    (Bool.to_int a.trace) tally.Phase.attempted tally.Phase.failed;
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %14.4f %s\n" n v u) metrics;
  Printf.printf "  %-26s %14.4f %s\n" "error_rate" error_rate "ratio";
  List.iter
    (fun (n, ok) -> Printf.printf "  check %-20s %s\n" n (if ok then "ok" else "FAILED"))
    checks;
  let open Obs.Json in
  let facts =
    Obj
      ([
         ("workload", String a.workload);
         ("seed", Int a.seed);
         ("seconds", Int a.seconds);
         ("trace", Bool a.trace);
         ("nproc", Int (Measure.nproc ()));
         ("host_calib_ms", Float calib);
         ("error_rate", Float error_rate);
         ("checks", Obj (List.map (fun (n, ok) -> (n, Bool ok)) checks));
       ]
      @ r.Phase.info)
  in
  let result =
    Obj
      [
        ("correct", Bool correct);
        ("attempted", Int tally.Phase.attempted);
        ("failed", Int tally.Phase.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (n, v, u) ->
                 (n, Obj [ ("value", Float (if Float.is_finite v then v else 0.0)); ("unit", String u) ]))
               metrics) );
      ]
  in
  let file =
    Filename.concat Measure.work_dir
      (Printf.sprintf "result-%s-trace%d.json" a.workload (Bool.to_int a.trace))
  in
  let oc = open_out file in
  output_string oc (to_string (Obj [ ("run", facts); ("result", result) ]));
  output_char oc '\n';
  close_out oc;
  print_endline (to_string (Obj [ ("run", facts) ]));
  print_endline (to_string result);
  exit (if correct then 0 else 1)
