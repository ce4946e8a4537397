(* Autocovariance of the input at (possibly negative) lag. *)
let autocov (p : Process.t) k = p.Process.variance *. p.Process.acf (abs k)

(* Cov_Y(k) = (1/w^2) sum_(d=-(w-1)..w-1) (w - |d|) Cov_X(k + d). *)
let smoothed_autocov p ~window k =
  let w = window in
  let acc = ref 0.0 in
  for d = -(w - 1) to w - 1 do
    acc := !acc +. (float_of_int (w - abs d) *. autocov p (k + d))
  done;
  !acc /. float_of_int (w * w)

let added_delay_frames ~window =
  assert (window >= 1);
  float_of_int (window - 1)

let smooth ?name (p : Process.t) ~window =
  if window < 1 then invalid_arg "Shaper.smooth: window must be >= 1";
  if window = 1 then p
  else begin
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "MA%d(%s)" window p.Process.name
    in
    let variance = smoothed_autocov p ~window 0 in
    assert (variance > 0.0);
    let acf k =
      if k = 0 then 1.0 else smoothed_autocov p ~window k /. variance
    in
    let spawn rng =
      let next = p.Process.spawn rng in
      (* Seed the pipeline so the first outputs have the right mean;
         exact joint stationarity arrives after [window] frames and is
         covered by simulation warmup. *)
      let ring = Array.init window (fun _ -> next ()) in
      let pos = ref 0 in
      let wf = float_of_int window in
      fun () ->
        ring.(!pos) <- next ();
        pos := (!pos + 1) mod window;
        Numerics.Float_array.sum ring /. wf
    in
    {
      Process.name;
      mean = p.Process.mean;
      variance;
      acf;
      hurst = p.Process.hurst;
      tail = `Unknown;
      spawn;
    }
  end
