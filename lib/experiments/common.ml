let mu = 500.0
let sigma2 = 5000.0
let ts = Traffic.Models.ts
let n_fig4 = 100
let c_fig4 = 526.0
let n_main = 30
let c_main = 538.0

(* The (variable, value) pairs already warned about.  The variables
   are re-read on every call, since they may change mid-process; a bad
   value warns once, however many series read it. *)
let warned : (string * string) list Atomic.t = Atomic.make []

let rec warn_once name s =
  let seen = Atomic.get warned in
  if not (List.mem (name, s) seen) then
    if Atomic.compare_and_set warned seen ((name, s) :: seen) then
      Printf.eprintf "warning: ignoring invalid %s=%S\n%!" name s
    else warn_once name s

let env_int name ~least default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= least -> v
      | _ ->
          warn_once name s;
          default)

let frames () = env_int "CTS_FRAMES" ~least:1 20_000
(* A Student-t interval needs two replications. *)
let reps () = env_int "CTS_REPS" ~least:2 3
let seed () = env_int "CTS_SEED" ~least:1 1996

let results_dir () =
  match Sys.getenv_opt "CTS_RESULTS_DIR" with
  | Some d when String.trim d <> "" -> d
  | _ -> "results"

let practical_buffers_msec =
  [| 0.5; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 8.0; 10.0; 12.0; 15.0; 20.0; 25.0; 30.0 |]

let wide_buffers_msec =
  Numerics.Float_array.logspace ~lo:1.0 ~hi:2000.0 ~n:24

type series = {
  label : string;
  points : (float * float) array;
  ci_half_width : float array option;
}

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

let series ~label points = { label; points; ci_half_width = None }

(* All experiment text goes through the process-wide human sink so
   [--quiet] silences it; lint rule H1 keeps stdout printers out of
   library code. *)
let printf fmt = Obs.Sink.printf fmt

let format_value v =
  match Float.classify_float v with
  | Float.FP_infinite -> if v > 0.0 then "+inf" else "-inf"
  | Float.FP_nan -> "nan"
  | _ when Float.abs v >= 1e6 || (Float.abs v < 1e-4 && not (Float.equal v 0.0))
    ->
      Printf.sprintf "%.4e" v
  | _ -> Printf.sprintf "%.4f" v

let print_figure fig =
  printf "\n== %s: %s ==\n" fig.id fig.title;
  match fig.series with
  | [] -> printf "(empty figure)\n"
  | first :: _ ->
      let xs = Array.map fst first.points in
      let aligned =
        List.for_all
          (fun s ->
            Array.length s.points = Array.length xs
            && Array.for_all2 (fun (x, _) x' -> Float.equal x x') s.points xs)
          fig.series
      in
      if aligned then begin
        let width = 14 in
        printf "%-12s" fig.xlabel;
        List.iter (fun s -> printf " %*s" width s.label) fig.series;
        printf "\n";
        Array.iteri
          (fun i x ->
            printf "%-12s" (format_value x);
            List.iter
              (fun s -> printf " %*s" width (format_value (snd s.points.(i))))
              fig.series;
            printf "\n")
          xs;
        printf "(y: %s)\n" fig.ylabel
      end
      else
        List.iter
          (fun s ->
            printf "-- %s --\n" s.label;
            Array.iter
              (fun (x, y) -> printf "  %s  %s\n" (format_value x) (format_value y))
              s.points)
          fig.series

let figure_rows fig =
  List.fold_left (fun acc s -> acc + Array.length s.points) 0 fig.series

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save_figure_csv fig =
  let dir = results_dir () in
  ensure_dir dir;
  let path = Filename.concat dir (fig.id ^ ".csv") in
  let oc = open_out path in
  (try
     Printf.fprintf oc "# %s: %s\n# x: %s; y: %s\nseries,x,y,ci_half_width\n"
       fig.id fig.title fig.xlabel fig.ylabel;
     List.iter
       (fun s ->
         Array.iteri
           (fun i (x, y) ->
             let hw =
               match s.ci_half_width with
               | Some h -> Printf.sprintf "%.8g" h.(i)
               | None -> ""
             in
             Printf.fprintf oc "%s,%.8g,%.8g,%s\n" s.label x y hw)
           s.points)
       fig.series
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let () =
  Obs.Registry.declare_counter "experiments.figures";
  Obs.Registry.declare_counter "experiments.rows"

let emit fig =
  Obs.Registry.incr "experiments.figures";
  Obs.Registry.incr ~by:(figure_rows fig) "experiments.rows";
  print_figure fig;
  save_figure_csv fig

let variance_growth (p : Traffic.Process.t) =
  Core.Variance_growth.create ~acf:p.Traffic.Process.acf
    ~variance:p.Traffic.Process.variance ~tail:p.Traffic.Process.tail

let buffer_cells_per_source ~msec ~n ~c =
  let total =
    Queueing.Units.buffer_cells_of_msec ~msec
      ~service_cells_per_frame:(float_of_int n *. c)
      ~ts
  in
  total /. float_of_int n

let log10_or_floor x = if x > 0.0 then log10 x else neg_infinity

let bop_series ~label process ~n ~c ~buffers_msec =
  let vg = variance_growth process in
  let points =
    Array.map
      (fun msec ->
        let b = buffer_cells_per_source ~msec ~n ~c in
        let r = Core.Bahadur_rao.evaluate vg ~mu:process.Traffic.Process.mean ~c ~b ~n in
        (msec, r.Core.Bahadur_rao.log10_bop))
      buffers_msec
  in
  series ~label points

let cts_series ~label process ~n ~c ~buffers_msec =
  let vg = variance_growth process in
  let points =
    Array.map
      (fun msec ->
        let b = buffer_cells_per_source ~msec ~n ~c in
        let a = Core.Cts.analyze vg ~mu:process.Traffic.Process.mean ~c ~b in
        (msec, float_of_int a.Core.Cts.m_star))
      buffers_msec
  in
  series ~label points

let acf_series ~label (process : Traffic.Process.t) ~lags =
  series ~label
    (Array.map
       (fun k -> (float_of_int k, process.Traffic.Process.acf k))
       lags)

let clr_sim_series ?(frames_scale = 1) ~label process ~n ~c ~buffers_msec =
  assert (frames_scale >= 1);
  let scenario = Queueing.Scenario.make ~model:process ~n ~c ~ts in
  let intervals =
    Queueing.Scenario.clr_curve scenario ~buffers_msec
      ~frames:(frames () * frames_scale)
      ~reps:(reps ()) ~seed:(seed ())
  in
  let points =
    Array.mapi
      (fun i ci -> (buffers_msec.(i), log10_or_floor ci.Stats.Ci.point))
      intervals
  in
  {
    label;
    points;
    (* Half-width reported in CLR units (not log10) for transparency. *)
    ci_half_width = Some (Array.map (fun ci -> ci.Stats.Ci.half_width) intervals);
  }
