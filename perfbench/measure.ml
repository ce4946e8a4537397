(* Clocks, summary statistics and host facts shared by every workload. *)

let now_ns () = Obs.Clock.monotonic_ns ()
let since_ns t0 = Int64.to_float (Obs.Clock.elapsed_ns ~since:t0)
let since_us t0 = since_ns t0 /. 1e3
let since_s t0 = since_ns t0 /. 1e9

(* Quantile by linear interpolation between closest ranks (numpy's
   default definition); [nan] on an empty sample. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* [num / den], 0 when nothing was counted. *)
let per num den = if den <= 0.0 then 0.0 else num /. den

(* A growable float buffer for per-op latencies. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let sub t ~pos ~len = Array.sub t.data pos len
  let to_array t = Array.sub t.data 0 t.len
end

(* Throughput and median latency of each timed slice of a phase cut
   into equal slices. *)
type slice = { ops_per_s : float; p50_us : float }

let slices ~latencies_us ~slice_ops ~slice_s =
  Array.mapi
    (fun i s ->
      let xs = Samples.sub latencies_us ~pos:(i * slice_ops) ~len:slice_ops in
      { ops_per_s = float_of_int slice_ops /. s; p50_us = quantile xs 0.5 })
    slice_s

(* The p99 of each of [count] equal segments. *)
let segment_p99s ~latencies_us ~segment_ops ~count =
  Array.init count (fun i ->
      quantile (Samples.sub latencies_us ~pos:(i * segment_ops) ~len:segment_ops) 0.99)

(* Peak resident set ([VmHWM]) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* A fixed CPU loop timed before each run: a record of how fast the
   host was, never a divisor. *)
let calib_ms () =
  let t0 = now_ns () in
  let acc = ref 0.0 in
  for i = 1 to 20_000_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc);
  since_ns t0 /. 1e6

let nproc () = Domain.recommended_domain_count ()

(* Remove a directory tree (state directories); missing is fine. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Working files of a run live under this directory of the checkout. *)
let work_dir = ".perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755
