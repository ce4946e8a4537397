type t = { frames : float array; ts : float; name : string }

let of_process process ~ts rng ~n =
  { frames = Process.generate process rng n; ts; name = process.Process.name }

let save_csv t ~path =
  let oc = open_out path in
  (try
     Printf.fprintf oc "# trace: %s\n# ts: %.17g\nframe,cells\n" t.name t.ts;
     Array.iteri (fun i x -> Printf.fprintf oc "%d,%.17g\n" i x) t.frames
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let load_csv ~path =
  let ic = open_in path in
  let name = ref "trace" and ts = ref 0.04 in
  let frames = ref [] in
  (try
     (try
        while true do
          let line = String.trim (input_line ic) in
          if line = "" then ()
          else if String.length line > 8 && String.sub line 0 8 = "# trace:" then
            name := String.trim (String.sub line 8 (String.length line - 8))
          else if String.length line > 5 && String.sub line 0 5 = "# ts:" then
            ts := float_of_string (String.trim (String.sub line 5 (String.length line - 5)))
          else if line.[0] = '#' || line = "frame,cells" then ()
          else begin
            match String.index_opt line ',' with
            | None -> failwith ("Trace.load_csv: malformed line: " ^ line)
            | Some i ->
                let v =
                  float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1))
                in
                frames := v :: !frames
          end
        done
      with End_of_file -> ())
   with e ->
     close_in_noerr ic;
     raise e);
  close_in ic;
  { frames = Array.of_list (List.rev !frames); ts = !ts; name = !name }

let mean t = Numerics.Float_array.mean t.frames
let variance t = Numerics.Float_array.variance t.frames
let acf t ~max_lag = Stats.Acf.autocorrelation_fft t.frames ~max_lag
