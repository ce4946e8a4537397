type finite_result = {
  clr : float;
  offered_cells : float;
  lost_cells : float;
  frames : int;
}

let finite_buffer_step ~w ~arrivals ~service ~buffer =
  assert (buffer >= 0.0);
  let net = w +. arrivals -. service in
  let lost = Stdlib.max 0.0 (net -. buffer) in
  let w' = Stdlib.min (Stdlib.max net 0.0) buffer in
  (w', lost)

let clr_multi ~next_frame ~service ~buffers ~frames () =
  assert (frames > 0 && service > 0.0);
  let warmup = frames / 20 in
  let k = Array.length buffers in
  let w = Array.make k 0.0 in
  let lost = Array.make k 0.0 in
  let offered = ref 0.0 in
  for _ = 1 to warmup do
    (* Chaos runs cover the offline validation path too: one armed
       [queueing.mux.step] draw per simulated frame (no-op while the
       fault registry is disarmed). *)
    Resilience.Fault.inject "queueing.mux.step";
    let a = next_frame () in
    for i = 0 to k - 1 do
      let w', _ = finite_buffer_step ~w:w.(i) ~arrivals:a ~service ~buffer:buffers.(i) in
      w.(i) <- w'
    done
  done;
  for _ = 1 to frames do
    Resilience.Fault.inject "queueing.mux.step";
    let a = next_frame () in
    offered := !offered +. a;
    for i = 0 to k - 1 do
      let w', l = finite_buffer_step ~w:w.(i) ~arrivals:a ~service ~buffer:buffers.(i) in
      w.(i) <- w';
      lost.(i) <- lost.(i) +. l
    done
  done;
  Array.init k (fun i ->
      {
        clr = (if !offered > 0.0 then lost.(i) /. !offered else 0.0);
        offered_cells = !offered;
        lost_cells = lost.(i);
        frames;
      })

let clr ~next_frame ~service ~buffer ~frames () =
  (clr_multi ~next_frame ~service ~buffers:[| buffer |] ~frames ()).(0)
