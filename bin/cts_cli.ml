(* Command-line driver for the paper-reproduction experiments. *)

let set_env name = Option.iter (Unix.putenv name)

let apply_scale ~frames ~reps ~seed ~results_dir =
  let set_int name v = set_env name (Option.map string_of_int v) in
  set_int "CTS_FRAMES" frames;
  set_int "CTS_REPS" reps;
  set_int "CTS_SEED" seed;
  set_env "CTS_RESULTS_DIR" results_dir

open Cmdliner

(* {2 Flag values}

   Every flag value is checked by its converter while cmdliner parses
   the command line, so a bad one is a usage error (exit 124) before
   any file is opened or any work is done.  One converter per kind of
   value; the libraries keep their own checks for their other callers. *)

(* [conv] narrowed to the values [ok] accepts. *)
let restrict conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* A converter from a library parser and its printer. *)
let of_result parse to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (to_string v) )

(* A comma-separated list of at least one [conv] value, tolerating
   spaces around the commas. *)
let non_empty_list conv ~what =
  let trimmed =
    Arg.conv
      ((fun s -> Arg.conv_parser conv (String.trim s)), Arg.conv_printer conv)
  in
  restrict (Arg.list trimmed) ~expected:("at least one " ^ what) (fun l -> l <> [])

let non_negative_int = restrict Arg.int ~expected:"an integer >= 0" (fun n -> n >= 0)
let positive_int = restrict Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)

(* A Student-t interval needs two replications. *)
let replications = restrict Arg.int ~expected:"an integer >= 2" (fun n -> n >= 2)

let port =
  restrict Arg.int ~expected:"an integer in 0..65535" (fun p -> p >= 0 && p <= 65535)

(* Cells per frame, weights, rates and holding times. *)
let positive_float =
  restrict Arg.float ~expected:"a finite number > 0" (fun x ->
      Float.is_finite x && x > 0.0)

(* Buffer sizes in msec and durations in seconds. *)
let non_negative_float =
  restrict Arg.float ~expected:"a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.0)

let clr = restrict Arg.float ~expected:"a number in (0, 1)" (fun p -> p > 0.0 && p < 1.0)

(* A duration in seconds where 0 means off ([None]). *)
let seconds =
  let parse s =
    Result.map
      (fun x -> if x > 0.0 then Some x else None)
      (Arg.conv_parser non_negative_float s)
  in
  let print ppf v = Format.fprintf ppf "%g" (Option.value v ~default:0.0) in
  Arg.conv (parse, print)

let class_names_doc = String.concat ", " Cac.Source_class.names

let source_class =
  let parse s =
    match Cac.Source_class.of_name s with
    | Some cls -> Ok cls
    | None ->
        Error (`Msg (Printf.sprintf "unknown class %S (try %s)" s class_names_doc))
  in
  Arg.conv
    (parse, fun ppf cls -> Format.pp_print_string ppf cls.Cac.Source_class.name)

(* "dar1,z0.975" (equal weights) or "dar1:2,z0.975:1". *)
let class_mix =
  let weight = restrict Arg.float ~expected:"a weight > 0" (fun w -> w > 0.0) in
  let parse s =
    let name, w =
      match String.index_opt s ':' with
      | None -> (s, Ok 1.0)
      | Some i ->
          ( String.sub s 0 i,
            Arg.conv_parser weight (String.sub s (i + 1) (String.length s - i - 1)) )
    in
    Result.bind (Arg.conv_parser source_class name) (fun cls ->
        Result.map (fun w -> (cls, w)) w)
  in
  let print ppf (cls, w) = Format.fprintf ppf "%s:%g" cls.Cac.Source_class.name w in
  non_empty_list (Arg.conv (parse, print)) ~what:"class"

(* "id=capacity:buffer_msec:clr", e.g. "oc3=16140:20:1e-6". *)
let link_spec =
  let dimensions = Arg.t3 ~sep:':' positive_float non_negative_float clr in
  let parse s =
    match String.index_opt s '=' with
    | Some i when String.trim (String.sub s 0 i) <> "" ->
        Result.map
          (fun (capacity, buffer_msec, target_clr) ->
            (String.trim (String.sub s 0 i), capacity, buffer_msec, target_clr))
          (Arg.conv_parser dimensions
             (String.sub s (i + 1) (String.length s - i - 1)))
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid link '%s', expected id=capacity:buffer_msec:clr (e.g. \
                oc3=16140:20:1e-6)"
               s))
  in
  let print ppf (id, capacity, buffer_msec, target_clr) =
    Format.fprintf ppf "%s=%g:%g:%g" id capacity buffer_msec target_clr
  in
  Arg.conv (parse, print)

let fsync_policy =
  of_result Persist.Wal.policy_of_string Persist.Wal.policy_name

let fault_rules = of_result Resilience.Fault.parse Resilience.Fault.to_string

let metrics_format =
  let parse s =
    match Obs.Export.format_of_string s with
    | Some f -> Ok f
    | None ->
        Error (`Msg (Printf.sprintf "unknown metrics format %S (json|prom)" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with
      | Obs.Export.Json_doc -> "json"
      | Obs.Export.Prometheus -> "prom")
  in
  Arg.conv (parse, print)

(* An experiment id, or "all" ([None]). *)
let experiment =
  let parse = function
    | "all" -> Ok None
    | id -> (
        match Experiments.Registry.find id with
        | Some e -> Ok (Some e)
        | None -> Error (`Msg (Printf.sprintf "unknown experiment %S" id)))
  in
  let print ppf e =
    Format.pp_print_string ppf
      (match e with None -> "all" | Some e -> e.Experiments.Registry.id)
  in
  Arg.conv (parse, print)

(* {2 Telemetry plumbing}

   [--metrics FMT] renders an Obs registry snapshot after the command
   body (to stdout, or to [--metrics-out PATH]); [--trace FILE]
   streams span-completion events as JSON lines while it runs. *)

type obs_opts = {
  metrics : Obs.Export.format option;
  metrics_out : string;
  trace : string option;
  trace_sample : int option;
  events : bool;
}

let obs_term =
  let metrics_arg =
    let doc =
      "After the command finishes, render the telemetry registry as $(docv): \
       $(b,json) (one document) or $(b,prom) (Prometheus text exposition)."
    in
    Arg.(
      value
      & opt (some metrics_format) None
      & info [ "metrics" ] ~docv:"FMT" ~doc)
  in
  let metrics_out_arg =
    let doc = "Where to write the $(b,--metrics) document ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "metrics-out" ] ~docv:"PATH" ~doc)
  in
  let trace_arg =
    let doc = "Stream span events to $(docv) as JSON lines while running." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Emit only every $(docv)-th completion of each span name to the \
       $(b,--trace) sink (1 = every span).  Dropped events tick \
       $(b,obs.span.sampled_out)."
    in
    Arg.(
      value & opt (some positive_int) None & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  let events_arg =
    let doc =
      "Profile GC pauses over the runtime-events ring: a consumer domain \
       feeds per-domain pause histograms \
       ($(b,runtime.ev.gc.pause.us{domain,phase})) into the registry and \
       backs per-request attribution ($(b,srv.http.gc_pause.us), the \
       $(b,gc_pause_us) access-log field, the $(b,events) section of \
       $(b,GET /debug/vars) with its longest pauses).  The runtime \
       itself writes the ring to $(i,PID).events in \
       OCAML_RUNTIME_EVENTS_DIR (default: the current directory), where \
       external eventring tools can read it."
    in
    Arg.(value & flag & info [ "events" ] ~doc)
  in
  Term.(
    const (fun metrics metrics_out trace trace_sample events ->
        { metrics; metrics_out; trace; trace_sample; events })
    $ metrics_arg $ metrics_out_arg $ trace_arg $ trace_sample_arg
    $ events_arg)

(* A bad --trace/--metrics-out path is a usage problem, not an
   internal error: report it cleanly instead of letting Sys_error
   escape (wrapped in Finally_raised) through Cmd.eval. *)
let open_out_or_die ~flag path =
  try open_out path
  with Sys_error msg ->
    Printf.eprintf "cts: cannot open %s file: %s\n%!" flag msg;
    exit 1

(* Both output files open before the command body runs, so a bad path
   fails before any work is done or any result is written. *)
let with_obs opts f =
  Option.iter
    (fun n -> Obs.Span.set_sampling (Obs.Span.One_in n))
    opts.trace_sample;
  let trace_oc =
    Option.map (open_out_or_die ~flag:"--trace") opts.trace
  in
  let metrics_oc =
    match (opts.metrics, opts.metrics_out) with
    | None, _ | Some _, "-" -> None
    | Some _, path -> Some (open_out_or_die ~flag:"--metrics-out" path)
  in
  (match trace_oc with
  | Some oc -> Obs.Span.set_trace_sink (Obs.Sink.Channel oc)
  | None -> ());
  let events = if opts.events then Some (Obs.Events.start ()) else None in
  let finish () =
    (match events with None -> () | Some t -> Obs.Events.stop t);
    if opts.trace_sample <> None then Obs.Span.reset_sampling ();
    (match trace_oc with
    | Some oc ->
        Obs.Span.set_trace_sink Obs.Sink.Null;
        close_out oc
    | None -> ());
    match opts.metrics with
    | None -> ()
    | Some fmt -> (
        let doc = Obs.Export.render fmt (Obs.Registry.snapshot ()) in
        match metrics_oc with
        | None -> print_string doc
        | Some oc ->
            output_string oc doc;
            close_out oc)
  in
  Fun.protect ~finally:finish f

(* {2 Fault-injection plumbing}

   [--fault-spec RULES] arms the deterministic fault registry before
   the command body runs (chaos testing of the CAC engine).  The seed
   fixes the injection stream, so a given (spec, seed, workload seed)
   triple reproduces the exact same faults and decisions. *)

type fault_opts = {
  fault_spec : Resilience.Fault.rule list option;
  fault_seed : int;
}

let fault_term =
  let spec_arg =
    let doc =
      "Arm deterministic fault injection: comma-separated rules \
       $(i,point=kind[:rate[:param]]) with kinds $(b,raise), $(b,nan), \
       $(b,latency), e.g. 'bahadur_rao.evaluate=nan:0.01'.  See \
       docs/resilience.md for the grammar and injection points."
    in
    Arg.(
      value
      & opt (some fault_rules) None
      & info [ "fault-spec" ] ~docv:"RULES" ~doc)
  in
  let seed_arg =
    let doc = "Seed for the fault-injection stream." in
    Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  Term.(
    const (fun fault_spec fault_seed -> { fault_spec; fault_seed })
    $ spec_arg $ seed_arg)

(* Arm the registry, then run [k]. *)
let with_faults opts k =
  match opts.fault_spec with
  | None -> k ()
  | Some rules ->
      Resilience.Fault.configure ~seed:opts.fault_seed rules;
      Fun.protect ~finally:Resilience.Fault.clear k

let frames_arg =
  let doc = "Frames per simulation replication (default 20000)." in
  Arg.(value & opt (some positive_int) None & info [ "frames" ] ~docv:"N" ~doc)

let reps_arg =
  let doc = "Simulation replications, at least 2 (default 3)." in
  Arg.(value & opt (some replications) None & info [ "reps" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Master random seed, a positive integer (default 1996)." in
  Arg.(value & opt (some positive_int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let results_dir_arg =
  let doc = "Directory for CSV outputs (default ./results)." in
  Arg.(value & opt (some string) None & info [ "results-dir" ] ~docv:"DIR" ~doc)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-5s %s\n" "id" "sim" "title";
    List.iter
      (fun e ->
        Printf.printf "%-12s %-5s %s\n" e.Experiments.Registry.id
          (if e.Experiments.Registry.simulated then "yes" else "no")
          e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments")
    Term.(const run $ const ())

let quiet_arg =
  let doc = "Suppress the per-experiment banner lines." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let run_cmd =
  let ids_arg =
    let doc = "Experiment identifiers (see $(b,list)); 'all' runs everything." in
    Arg.(non_empty & pos_all experiment [] & info [] ~docv:"ID" ~doc)
  in
  let run frames reps seed results_dir quiet obs_opts targets =
    apply_scale ~frames ~reps ~seed ~results_dir;
    if quiet then Obs.Sink.set_human Obs.Sink.Null;
    with_obs obs_opts @@ fun () ->
    (* Any experiment raising mid-run must surface as a non-zero exit,
       not just a stack trace on a successful process. *)
    let failures =
      List.filter_map
        (fun target ->
          let id, run =
            match target with
            | None -> ("all", fun () -> Experiments.Registry.run_all ())
            | Some e ->
                ( e.Experiments.Registry.id,
                  fun () -> Experiments.Registry.run_entry e )
          in
          match run () with
          | () -> None
          | exception exn ->
              Some (Printf.sprintf "%s: %s" id (Printexc.to_string exn)))
        targets
    in
    match failures with
    | [] -> `Ok ()
    | failures -> `Error (false, String.concat "; " failures)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one or more experiments")
    Term.(
      ret
        (const run $ frames_arg $ reps_arg $ seed_arg $ results_dir_arg
       $ quiet_arg $ obs_term $ ids_arg))

let analytic_cmd =
  let run results_dir =
    set_env "CTS_RESULTS_DIR" results_dir;
    Experiments.Registry.run_all ~include_simulated:false ()
  in
  Cmd.v
    (Cmd.info "analytic"
       ~doc:"Run only the closed-form experiments (fast, deterministic)")
    Term.(const run $ results_dir_arg)

(* Model selection shared by the engineering subcommands. *)
let model_arg =
  let doc = Printf.sprintf "Source model: one of %s." class_names_doc in
  Arg.(
    value
    & opt source_class (Cac.Source_class.of_name_exn "z0.975")
    & info [ "model" ] ~docv:"MODEL" ~doc)

let n_arg =
  let doc = "Number of multiplexed sources." in
  Arg.(value & opt positive_int 30 & info [ "n" ] ~docv:"N" ~doc)

let c_arg =
  let doc = "Bandwidth per source, cells/frame." in
  Arg.(value & opt positive_float 538.0 & info [ "c" ] ~docv:"CELLS" ~doc)

let buffer_arg =
  let doc = "Total buffer size as maximum drain delay, msec." in
  Arg.(
    value & opt non_negative_float 10.0 & info [ "buffer-msec" ] ~docv:"MSEC" ~doc)

let capacity_arg =
  let doc = "Total link capacity, cells/frame." in
  Arg.(value & opt positive_float 16140.0 & info [ "capacity" ] ~docv:"CELLS" ~doc)

let clr_arg =
  let doc = "Target cell loss rate." in
  Arg.(value & opt clr 1e-6 & info [ "clr" ] ~docv:"CLR" ~doc)

let analyze_cmd =
  let run cls n c buffer_msec =
    let model = cls.Cac.Source_class.process and vg = cls.Cac.Source_class.vg in
    let mu = model.Traffic.Process.mean in
    let b = Experiments.Common.buffer_cells_per_source ~msec:buffer_msec ~n ~c in
    if c <= mu then `Error (false, "unstable: bandwidth per source <= mean")
    else begin
      let br = Core.Bahadur_rao.evaluate vg ~mu ~c ~b ~n in
      let ln = Core.Large_n.evaluate vg ~mu ~c ~b ~n in
      Printf.printf "model          %s\n" model.Traffic.Process.name;
      Printf.printf "sources        %d at c = %g cells/frame (util %.1f%%)\n"
        n c (100.0 *. mu /. c);
      Printf.printf "buffer         %g msec = %.0f cells total\n" buffer_msec
        (b *. float_of_int n);
      Printf.printf "CTS m*_b       %d frames\n"
        br.Core.Bahadur_rao.cts.Core.Cts.m_star;
      Printf.printf "rate I(c,b)    %.5f\n" br.Core.Bahadur_rao.cts.Core.Cts.rate;
      Printf.printf "log10 BOP      %.3f (Bahadur-Rao)  %.3f (Large-N)\n"
        br.Core.Bahadur_rao.log10_bop ln.Core.Large_n.log10_bop;
      Printf.printf "cutoff freq    %.4f rad/frame (pi / m*)\n"
        (Core.Spectrum.cutoff_frequency_of_cts
           ~m_star:br.Core.Bahadur_rao.cts.Core.Cts.m_star);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Critical time scale and overflow probability for one scenario")
    Term.(ret (const run $ model_arg $ n_arg $ c_arg $ buffer_arg))

let admit_cmd =
  let run cls capacity buffer_msec target_clr =
    let model = cls.Cac.Source_class.process in
    let total_buffer =
      Queueing.Units.buffer_cells_of_msec ~msec:buffer_msec
        ~service_cells_per_frame:capacity ~ts:Traffic.Models.ts
    in
    let n =
      Core.Admission.max_admissible cls.Cac.Source_class.vg
        ~mu:model.Traffic.Process.mean ~total_capacity:capacity ~total_buffer
        ~target_clr
    in
    Printf.printf
      "%d %s connections admissible on %g cells/frame with %g msec buffer \
       at CLR <= %g\n"
      n model.Traffic.Process.name capacity buffer_msec target_clr
  in
  Cmd.v
    (Cmd.info "admit"
       ~doc:"Connection admission count for a link, buffer and CLR target")
    Term.(const run $ model_arg $ capacity_arg $ buffer_arg $ clr_arg)

let simulate_cmd =
  let frames_sim_arg =
    let doc = "Frames to simulate." in
    Arg.(value & opt positive_int 50_000 & info [ "frames" ] ~docv:"N" ~doc)
  in
  let reps_sim_arg =
    let doc = "Independent replications, at least 2." in
    Arg.(value & opt replications 3 & info [ "reps" ] ~docv:"N" ~doc)
  in
  let seed_sim_arg =
    let doc = "Random seed." in
    Arg.(value & opt int 1996 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run cls n c buffer_msec frames reps seed =
    let model = cls.Cac.Source_class.process in
    let scenario =
      Queueing.Scenario.make ~model ~n ~c ~ts:Traffic.Models.ts
    in
    let intervals =
      Queueing.Scenario.clr_curve scenario ~buffers_msec:[| buffer_msec |]
        ~frames ~reps ~seed
    in
    let ci = intervals.(0) in
    Printf.printf
      "%s x%d at c = %g, buffer %g msec: CLR = %.3e (95%% CI +/- %.1e, %d \
       x %d frames)\n"
      model.Traffic.Process.name n c buffer_msec ci.Stats.Ci.point
      ci.Stats.Ci.half_width reps frames;
    match
      Core.Bahadur_rao.evaluate cls.Cac.Source_class.vg
        ~mu:model.Traffic.Process.mean ~c
        ~b:(Experiments.Common.buffer_cells_per_source ~msec:buffer_msec ~n ~c)
        ~n
    with
    | r ->
        Printf.printf "Bahadur-Rao estimate: %.3e (infinite-buffer BOP)\n"
          r.Core.Bahadur_rao.bop
    | exception Invalid_argument _ -> ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one multiplexer scenario directly")
    Term.(
      const run $ model_arg $ n_arg $ c_arg $ buffer_arg $ frames_sim_arg
      $ reps_sim_arg $ seed_sim_arg)

(* {2 The online CAC engine} *)

let cac_decide_cmd =
  let existing_arg =
    let doc = "Connections of the class already admitted on the link." in
    Arg.(value & opt non_negative_int 0 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run cls capacity buffer_msec target_clr existing fault_opts obs_opts =
    with_obs obs_opts @@ fun () ->
    with_faults fault_opts @@ fun () ->
    let engine = Cac.Engine.create () in
    (* Finite flag values can still overflow to an infinite buffer in
       cells; the engine's dimension check refuses that. *)
    match
      Cac.Engine.add_link_msec engine ~id:"link" ~capacity ~buffer_msec
        ~target_clr
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | link ->
        let rec preload k =
          k = 0
          ||
          match Cac.Engine.admit engine ~link:"link" ~cls with
          | Cac.Engine.Admitted _ -> preload (k - 1)
          | Cac.Engine.Rejected _ -> false
        in
        if not (preload existing) then
          `Error
            ( false,
              Printf.sprintf
                "the pre-existing load of %d connections is itself inadmissible"
                existing )
        else begin
          let time f =
            let t0 = Obs.Clock.wall () in
            let v = f () in
            (v, 1e6 *. (Obs.Clock.wall () -. t0))
          in
          let verdict, cold_us =
            time (fun () -> Cac.Engine.evaluate engine ~link:"link" ~cls)
          in
          let _, warm_us =
            time (fun () -> Cac.Engine.evaluate engine ~link:"link" ~cls)
          in
          Printf.printf "link           %g cells/frame, buffer %g msec (%.0f cells), CLR <= %g\n"
            capacity buffer_msec (Cac.Link.buffer link) target_clr;
          Printf.printf "admitted       %d x %s (utilization %.1f%%)\n" existing
            cls.Cac.Source_class.name
            (100.0 *. Cac.Link.utilization link);
          Printf.printf "decision       %s%s\n"
            (if verdict.Cac.Engine.admissible then "ADMIT"
             else
               match verdict.Cac.Engine.reason with
               | Some Cac.Engine.Unstable -> "REJECT (mean load at capacity)"
               | _ when verdict.Cac.Engine.degraded ->
                   "REJECT (peak-rate allocation exceeds capacity)"
               | _ -> "REJECT (CLR target exceeded)")
            (if verdict.Cac.Engine.degraded then
               " [degraded: kernel failed, fail-closed peak-rate fallback]"
             else "");
          (match verdict.Cac.Engine.log10_bop with
          | Some bop -> Printf.printf "log10 BOP      %.3f (target %.3f)\n" bop (log10 target_clr)
          | None -> ());
          (match verdict.Cac.Engine.required_bw with
          | Some bw ->
              Printf.printf "%-14s %.1f of %g cells/frame\n"
                (if verdict.Cac.Engine.degraded then "peak-rate bw"
                 else "effective bw")
                bw capacity
          | None -> ());
          Printf.printf "latency        %.1f us cold, %.1f us cached\n" cold_us
            warm_us;
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "decide"
       ~doc:"One admission decision against a link with existing load")
    Term.(
      ret
        (const run $ model_arg $ capacity_arg $ buffer_arg $ clr_arg
       $ existing_arg $ fault_term $ obs_term))

let cac_replay_cmd =
  let mix_arg =
    let doc =
      Printf.sprintf
        "Traffic mix: comma-separated classes with optional weights, e.g. \
         'dar1:2,z0.975:1'.  Classes: %s."
        class_names_doc
    in
    Arg.(
      value
      & opt class_mix [ (Cac.Source_class.of_name_exn "z0.975", 1.0) ]
      & info [ "mix" ] ~docv:"MIX" ~doc)
  in
  let requests_arg =
    let doc = "Connection attempts to replay." in
    Arg.(value & opt positive_int 10_000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc =
      "Arrival rate, connections/s (default: 1.1 x the link's fill boundary \
       divided by the holding time)."
    in
    Arg.(
      value & opt (some positive_float) None & info [ "rate" ] ~docv:"PER_SEC" ~doc)
  in
  let holding_arg =
    let doc = "Mean connection holding time, seconds." in
    Arg.(value & opt positive_float 60.0 & info [ "holding" ] ~docv:"SEC" ~doc)
  in
  let seed_replay_arg =
    let doc = "Random seed." in
    Arg.(value & opt int 1996 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run mix capacity buffer_msec target_clr requests rate holding seed
      fault_opts obs_opts =
    with_obs obs_opts @@ fun () ->
    with_faults fault_opts @@ fun () ->
    let make_engine () =
      let engine = Cac.Engine.create () in
      ignore
        (Cac.Engine.add_link_msec engine ~id:"link" ~capacity ~buffer_msec
           ~target_clr);
      engine
    in
    (* As in decide, the link's cells and the derived arrival rate can
       overflow although every flag value is finite; the library
       checks refuse them. *)
    match make_engine () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | scratch ->
        let arrival_rate =
          match rate with
          | Some r -> r
          | None ->
              let n_max =
                Cac.Engine.fill scratch ~link:"link" ~cls:(fst (List.hd mix))
              in
              1.1 *. float_of_int (Stdlib.max 1 n_max) /. holding
        in
        match
          Cac.Workload.spec ~mean_holding:holding ~arrival_rate ~requests
            ~mix ()
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | spec ->
          let engine = make_engine () in
          let t0 = Obs.Clock.wall () in
          let result =
            Cac.Workload.run engine ~link:"link" spec
              (Numerics.Rng.create ~seed)
          in
          let elapsed = Obs.Clock.wall () -. t0 in
          Printf.printf
            "replayed %d connection attempts (%.2f Erlangs offered) in %.2f s\n"
            result.Cac.Workload.offered
            (Cac.Workload.offered_load spec)
            elapsed;
          Printf.printf "admitted       %d\n" result.Cac.Workload.admitted;
          Printf.printf "rejected       %d\n" result.Cac.Workload.rejected;
          if result.Cac.Workload.errors > 0 || result.Cac.Workload.degraded > 0
          then
            Printf.printf
              "resilience     %d engine errors (fail-closed), %d degraded \
               peak-rate decisions\n"
              result.Cac.Workload.errors result.Cac.Workload.degraded;
          Printf.printf "blocking       %.4f overall, %.4f steady-state\n"
            result.Cac.Workload.blocking result.Cac.Workload.steady_blocking;
          Printf.printf "occupancy      %.1f mean, %d peak, %d at end\n"
            result.Cac.Workload.mean_occupancy result.Cac.Workload.peak_occupancy
            result.Cac.Workload.final_occupancy;
          Printf.printf "cache          %.1f%% hits overall, %.1f%% steady-state\n"
            (100.0 *. result.Cac.Workload.cache_hit_rate)
            (100.0 *. result.Cac.Workload.steady_cache_hit_rate);
          Printf.printf "latency        %.2f us mean per decision\n"
            result.Cac.Workload.mean_latency_us;
          let stats = Cac.Engine.cache_stats engine in
          Printf.printf "cache entries  %d (%d evictions)\n"
            stats.Cac.Decision_cache.entries stats.Cac.Decision_cache.evictions;
          `Ok ()
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a Poisson/exponential connection workload on one link")
    Term.(
      ret
        (const run $ mix_arg $ capacity_arg $ buffer_arg $ clr_arg
       $ requests_arg $ rate_arg $ holding_arg $ seed_replay_arg $ fault_term
       $ obs_term))

let cac_sweep_cmd =
  let models_arg =
    let doc =
      Printf.sprintf "Comma-separated traffic classes (%s)." class_names_doc
    in
    Arg.(
      value
      & opt
          (non_empty_list source_class ~what:"class")
          (List.map Cac.Source_class.of_name_exn [ "z0.975"; "dar1"; "dar3"; "l" ])
      & info [ "models" ] ~docv:"LIST" ~doc)
  in
  let buffers_arg =
    let doc = "Comma-separated buffer sizes, msec." in
    Arg.(
      value
      & opt (non_empty_list non_negative_float ~what:"buffer size") [ 10.0; 20.0; 30.0 ]
      & info [ "buffers" ] ~docv:"LIST" ~doc)
  in
  let clrs_arg =
    let doc = "Comma-separated CLR targets." in
    Arg.(
      value
      & opt (non_empty_list clr ~what:"CLR target") [ 1e-6 ]
      & info [ "clrs" ] ~docv:"LIST" ~doc)
  in
  let requests_arg =
    let doc = "Workload attempts replayed per grid cell (0 disables)." in
    Arg.(value & opt non_negative_int 2000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains (default: the recommended domain count)." in
    Arg.(value & opt (some positive_int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let seed_sweep_arg =
    let doc = "Master seed for per-cell workloads." in
    Arg.(value & opt int 1996 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let check_arg =
    let doc = "Re-run sequentially and verify bit-identical results." in
    Arg.(value & flag & info [ "check-sequential" ] ~doc)
  in
  let heatmap_arg =
    let doc =
      "After the sweep, print the per-buffer m* distribution heatmap \
       (ASCII render of the labelled $(b,cts.m_star) histograms)."
    in
    Arg.(value & flag & info [ "heatmap" ] ~doc)
  in
  let run classes buffers_msec target_clrs capacity requests domains seed check
      heatmap fault_opts obs_opts =
    with_obs obs_opts @@ fun () ->
    with_faults fault_opts @@ fun () ->
    let scenarios =
      Cac.Sweep.grid ~capacity ~requests ~seed
        ~class_names:(List.map (fun c -> c.Cac.Source_class.name) classes)
        ~buffers_msec ~target_clrs ()
    in
    let t0 = Obs.Clock.wall () in
    let outcomes = Cac.Sweep.run ?domains scenarios in
    let elapsed = Obs.Clock.wall () -. t0 in
    Cac.Sweep.print_table outcomes;
    let failed = List.length (Cac.Sweep.failures outcomes) in
    Printf.printf "%d scenarios (%d failed) in %.2f s\n"
      (Array.length outcomes) failed elapsed;
    if heatmap then begin
      match Obs.Heatmap.of_snapshot (Obs.Registry.snapshot ()) with
      | Some hm -> print_string (Obs.Heatmap.to_ascii hm)
      | None -> Printf.printf "no per-buffer m* observations recorded\n"
    end;
    if not check then `Ok ()
    else begin
      let sequential = Cac.Sweep.run ~domains:1 scenarios in
      if sequential = outcomes then begin
        Printf.printf "sequential re-run: identical\n";
        `Ok ()
      end
      else `Error (false, "parallel and sequential sweeps diverge")
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Domain-parallel capacity-planning sweep over (class, buffer, CLR)")
    Term.(
      ret
        (const run $ models_arg $ buffers_arg $ clrs_arg $ capacity_arg
       $ requests_arg $ domains_arg $ seed_sweep_arg $ check_arg
       $ heatmap_arg $ fault_term $ obs_term))

let cac_verify_state_cmd =
  let dir_arg =
    let doc = "State directory ($(b,--state-dir) of a $(b,cts serve) run)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let json_verify_arg =
    let doc = "Print the recovery report as one JSON document." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run dir json =
    match Persist.Recovery.verify ~dir with
    | Error e -> `Error (false, Printf.sprintf "state verification failed: %s" e)
    | Ok r ->
        if json then
          print_endline (Obs.Json.to_string (Persist.Recovery.report_json r))
        else begin
          Printf.printf "state dir      %s\n" r.Persist.Recovery.r_dir;
          (match r.Persist.Recovery.r_snapshot with
          | None -> Printf.printf "snapshot       none\n"
          | Some (covers, path) ->
              Printf.printf "snapshot       %s (covers segment %d, %d connections)\n"
                (Filename.basename path) covers
                r.Persist.Recovery.r_snapshot_conns);
          List.iter
            (fun s ->
              Printf.printf "segment        %s: %d records (%d applied, %d skipped)%s\n"
                s.Persist.Recovery.sr_file s.Persist.Recovery.sr_records
                s.Persist.Recovery.sr_applied s.Persist.Recovery.sr_skipped
                (match s.Persist.Recovery.sr_torn with
                | None -> ""
                | Some off -> Printf.sprintf ", torn tail at offset %d" off))
            r.Persist.Recovery.r_segments;
          Printf.printf "recovered      %d links, %d connections\n"
            r.Persist.Recovery.r_links r.Persist.Recovery.r_conns;
          List.iter
            (fun s ->
              match s.Persist.Recovery.sr_torn with
              | None -> ()
              | Some off ->
                  Printf.eprintf
                    "cts: warning: %s has a torn final record at offset %d \
                     (crash residue; recovery truncates it)\n%!"
                    s.Persist.Recovery.sr_file off)
            r.Persist.Recovery.r_segments
        end;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "verify-state"
       ~doc:
         "Replay a serve daemon's durable state offline: exit 0 if the \
          snapshot and journal reconstruct cleanly (torn tails warn), \
          non-zero on interior corruption")
    Term.(ret (const run $ dir_arg $ json_verify_arg))

let cac_cmd =
  Cmd.group
    (Cmd.info "cac"
       ~doc:
         "Online connection-admission-control engine (decide, replay, sweep, \
          verify-state)")
    [ cac_decide_cmd; cac_replay_cmd; cac_sweep_cmd; cac_verify_state_cmd ]

(* {2 The serving daemon} *)

let serve_cmd =
  let host_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "TCP port (0 picks an ephemeral port)." in
    Arg.(value & opt port 8080 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains draining the request queue." in
    Arg.(value & opt (some positive_int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Accepted connections queued before the server sheds with 503."
    in
    Arg.(value & opt positive_int 128 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let read_timeout_arg =
    let doc = "Per-request read deadline, seconds (0 disables)." in
    Arg.(value & opt seconds (Some 10.0) & info [ "read-timeout" ] ~docv:"SEC" ~doc)
  in
  let max_body_arg =
    let doc = "Largest accepted request body, bytes." in
    Arg.(
      value & opt non_negative_int (1 lsl 20) & info [ "max-body" ] ~docv:"BYTES" ~doc)
  in
  let links_arg =
    let doc =
      "Link to serve, as $(i,id=capacity:buffer_msec:clr) (repeatable).  \
       Default: the two links of examples/cac_server.ml."
    in
    Arg.(
      value
      & opt_all link_spec
          [ ("oc3", 16140.0, 20.0, 1e-6); ("access", 5380.0, 10.0, 1e-6) ]
      & info [ "link" ] ~docv:"SPEC" ~doc)
  in
  let cache_arg =
    let doc = "Decision-cache capacity (0 disables caching)." in
    Arg.(value & opt non_negative_int 4096 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let state_dir_arg =
    let doc =
      "Durable state directory: journal every admitted/released connection \
       to a write-ahead log, checkpoint periodically, and replay it all back \
       on the next boot (before the socket binds).  Without this flag the \
       connection table is in-memory only."
    in
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let fsync_policy_arg =
    let doc =
      "WAL durability: $(b,always) (fsync before every ack; loses nothing), \
       $(b,every:N) (fsync per N records; a power loss may lose up to N \
       acked connections, a plain crash none), or $(b,never) (page cache \
       only)."
    in
    Arg.(
      value
      & opt fsync_policy Persist.Wal.Always
      & info [ "fsync-policy" ] ~docv:"POLICY" ~doc)
  in
  let snapshot_every_arg =
    let doc =
      "Checkpoint the connection table after $(docv) journaled ops (0 = only \
       on graceful shutdown)."
    in
    Arg.(value & opt non_negative_int 10_000 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let access_log_file_arg =
    let doc =
      "Append the JSON access log to $(docv) instead of stdout; SIGHUP \
       reopens it (logrotate-friendly)."
    in
    Arg.(
      value & opt (some string) None & info [ "access-log" ] ~docv:"PATH" ~doc)
  in
  let run host port domains queue read_timeout max_body links cache_capacity
      state_dir fsync_policy snapshot_every access_log quiet fault_opts
      obs_opts =
    (* The daemon owns the --trace file: SIGHUP reopens it. *)
    with_obs { obs_opts with trace = None } @@ fun () ->
    with_faults fault_opts @@ fun () ->
    if quiet then Obs.Sink.set_human Obs.Sink.Null;
    match
      Srv.Daemon.start
        {
          host;
          port;
          domains;
          queue_capacity = queue;
          read_timeout_s = read_timeout;
          max_body;
          links;
          cache_capacity;
          state_dir;
          fsync_policy;
          snapshot_every;
          access_log;
          trace = obs_opts.trace;
        }
    with
    | Error e -> `Error (false, e)
    | Ok daemon ->
        (* SIGTERM/SIGINT drain (exit 0), SIGHUP reopens the log
           files; each handler only sets a flag. *)
        let stop = Sys.Signal_handle (fun _ -> Srv.Daemon.stop daemon) in
        Sys.set_signal Sys.sigterm stop;
        Sys.set_signal Sys.sigint stop;
        Sys.set_signal Sys.sighup
          (Sys.Signal_handle (fun _ -> Srv.Daemon.reopen_logs daemon));
        Obs.Sink.printf
          "cts serve: listening on %s:%d (%d domains, queue %d)\n" host
          (Srv.Daemon.port daemon) (Srv.Daemon.domains daemon) queue;
        List.iter
          (fun link ->
            Obs.Sink.printf
              "cts serve:   link %-7s %.0f cells/frame, buffer %.1f \
               msec, CLR <= %g\n"
              (Cac.Link.id link) (Cac.Link.capacity link)
              (Cac.Link.buffer_msec link) (Cac.Link.target_clr link))
          (Srv.Daemon.links daemon);
        Obs.Sink.printf
          "cts serve: POST /v1/decide /v1/admit /v1/release, GET \
           /metrics /healthz /debug/vars /heatmap /heatmap.csv\n";
        Srv.Daemon.serve daemon;
        let count = Obs.Registry.counter_value in
        Obs.Sink.printf
          "cts serve: drained; %d requests on %d connections (%d \
           shed, %d handler errors)\n"
          (count "srv.http.requests") (count "srv.http.connections")
          (count "srv.http.shed")
          (count "srv.http.handler_errors");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the admission-control engine as an HTTP daemon (Domain-parallel \
          pool; see docs/server.md)")
    Term.(
      ret
        (const run $ host_arg $ port_arg $ domains_arg $ queue_arg
       $ read_timeout_arg $ max_body_arg $ links_arg $ cache_arg
       $ state_dir_arg $ fsync_policy_arg $ snapshot_every_arg
       $ access_log_file_arg $ quiet_arg $ fault_term $ obs_term))

(* {2 The obs command group} *)

let obs_format_arg =
  let doc = "Output format: $(b,json) or $(b,prom)." in
  Arg.(
    value
    & opt metrics_format Obs.Export.Prometheus
    & info [ "format" ] ~docv:"FMT" ~doc)

let obs_export_cmd =
  let run fmt =
    print_string (Obs.Export.render fmt (Obs.Registry.snapshot ()))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Render the telemetry registry (all declared instruments, zero-valued \
          in a fresh process — mainly useful for inspecting the exposition \
          formats and instrument schema)")
    Term.(const run $ obs_format_arg)

let obs_list_cmd =
  let run () =
    let snap = Obs.Registry.snapshot () in
    Printf.printf "%-10s %s\n" "kind" "instrument";
    List.iter
      (fun (key, _) ->
        Printf.printf "%-10s %s\n" "counter" (Obs.Export.key_string key))
      snap.Obs.Registry.counters;
    List.iter
      (fun (key, _) ->
        Printf.printf "%-10s %s\n" "gauge" (Obs.Export.key_string key))
      snap.Obs.Registry.gauges;
    List.iter
      (fun (key, _) ->
        Printf.printf "%-10s %s\n" "histogram" (Obs.Export.key_string key))
      snap.Obs.Registry.histograms
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the declared telemetry instruments")
    Term.(const run $ const ())

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Telemetry: instrument schema and exposition formats")
    [ obs_export_cmd; obs_list_cmd ]

let main =
  let doc =
    "Reproduction of Ryu & Elwalid (SIGCOMM '96): LRD of VBR video in ATM \
     traffic engineering"
  in
  Cmd.group
    (Cmd.info "cts" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      run_cmd;
      analytic_cmd;
      analyze_cmd;
      admit_cmd;
      simulate_cmd;
      cac_cmd;
      serve_cmd;
      obs_cmd;
    ]

let () = exit (Cmd.eval main)
