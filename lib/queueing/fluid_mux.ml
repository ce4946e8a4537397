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

let default_warmup frames = frames / 20

let clr_multi ~next_frame ~service ~buffers ~frames () =
  assert (frames > 0 && service > 0.0);
  let warmup = default_warmup frames in
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

type workload_stats = {
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  frames : int;
}

let workload_stats ~next_frame ~service ~frames ?warmup () =
  assert (frames > 0 && service > 0.0);
  let warmup = match warmup with Some w -> w | None -> default_warmup frames in
  let w = ref 0.0 in
  for _ = 1 to warmup do
    w := Stdlib.max 0.0 (!w +. next_frame () -. service)
  done;
  let samples = Array.make frames 0.0 in
  for i = 0 to frames - 1 do
    w := Stdlib.max 0.0 (!w +. next_frame () -. service);
    samples.(i) <- !w
  done;
  let quantile = Numerics.Float_array.quantile samples in
  {
    mean = Numerics.Float_array.mean samples;
    p50 = quantile 0.5;
    p95 = quantile 0.95;
    p99 = quantile 0.99;
    max = Numerics.Float_array.max samples;
    frames;
  }

let workload_tail ~next_frame ~service ~thresholds ~frames ?warmup () =
  assert (frames > 0 && service > 0.0);
  let warmup = match warmup with Some w -> w | None -> default_warmup frames in
  let k = Array.length thresholds in
  let exceed = Array.make k 0 in
  let w = ref 0.0 in
  for _ = 1 to warmup do
    w := Stdlib.max 0.0 (!w +. next_frame () -. service)
  done;
  for _ = 1 to frames do
    w := Stdlib.max 0.0 (!w +. next_frame () -. service);
    for i = 0 to k - 1 do
      if !w > thresholds.(i) then exceed.(i) <- exceed.(i) + 1
    done
  done;
  Array.init k (fun i ->
      (thresholds.(i), float_of_int exceed.(i) /. float_of_int frames))
