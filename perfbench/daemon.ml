(* Lifecycle of the [cts serve] daemon under test.

   The daemon starts on [--port 0]; the bound port comes from its
   banner, so a stale daemon on a reused port can never answer for
   this run.  Every daemon and state directory this process creates is
   registered: [stop] drains a daemon with SIGTERM, and [cleanup] —
   installed with [at_exit], so it runs on every exit path — kills and
   reaps whatever is left and removes the directories. *)

type t = {
  pid : int;
  mutable port : int;
  out : Unix.file_descr;  (** the daemon's stdout, read for the banner *)
  args : string list;
  mutable reaped : bool;
}

let live : t list ref = ref []
let dirs : string list ref = ref []

let register_dir dir = dirs := dir :: !dirs

let remove_dir dir =
  (try Measure.rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
  dirs := List.filter (fun d -> not (String.equal d dir)) !dirs

(* Read the banner until the "listening on HOST:PORT" line. *)
let read_port fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec scan () =
    let text = Buffer.contents buf in
    (* Only complete lines: a chunk may end inside the port number. *)
    let complete =
      match List.rev (String.split_on_char '\n' text) with
      | _partial :: lines -> lines
      | [] -> []
    in
    let port =
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "cts serve: listening on %[^:]:%d" (fun _ p ->
              p))
        complete
    in
    match port with
    | Some p -> p
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then failwith "daemon banner timed out";
        let ready, _, _ = Unix.select [ fd ] [] [] left in
        if ready <> [] then begin
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then failwith ("daemon exited before its banner: " ^ text);
          Buffer.add_subbytes buf chunk 0 n
        end;
        scan ()
  in
  scan ()

let reap ~signal t =
  if not t.reaped then begin
    t.reaped <- true;
    live := List.filter (fun d -> d.pid <> t.pid) !live;
    (try Unix.kill t.pid signal with Unix.Unix_error _ -> ());
    (* Graceful drain first; SIGKILL if it hangs past 20 s. *)
    let deadline = Unix.gettimeofday () +. 20.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
            snd (Unix.waitpid [] t.pid)
          end
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status =
      match wait () with
      | status -> Some status
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
    in
    (try Unix.close t.out with Unix.Unix_error _ -> ());
    match status with Some (Unix.WEXITED 0) -> true | _ -> false
  end
  else true

(* The exit path: the client may still hold a keep-alive connection
   the daemon's drain would wait on, so kill outright. *)
let cleanup () =
  List.iter (fun d -> ignore (reap ~signal:Sys.sigkill d)) !live;
  List.iter remove_dir !dirs

let start ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (exe :: "serve" :: args) in
  let pid =
    match Unix.create_process exe argv Unix.stdin w Unix.stderr with
    | pid -> pid
    | exception e ->
        Unix.close r;
        Unix.close w;
        raise e
  in
  Unix.close w;
  let t = { pid; port = 0; out = r; args; reaped = false } in
  live := t :: !live;
  match read_port r ~timeout_s:60.0 with
  | port ->
      t.port <- port;
      t
  | exception e ->
      ignore (reap ~signal:Sys.sigkill t);
      raise e

(* Stop (SIGTERM, graceful drain), reap; [true] on a clean exit 0. *)
let stop = reap ~signal:Sys.sigterm

let rss_mb t = Measure.vm_hwm_mb (string_of_int t.pid)

(* The sum of one histogram series from a Prometheus exposition, e.g.
   [srv_http_latency_us] with [{route="/v1/admit"}]; 0 when absent. *)
let prom_sum text ~name ~labels =
  let prefix = name ^ "_sum" ^ labels ^ " " in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        float_of_string_opt
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.0
