type t = {
  model : Traffic.Process.t;
  n : int;
  c : float;
  ts : float;
}

let make ~model ~n ~c ~ts =
  assert (n >= 1 && c > 0.0 && ts > 0.0);
  { model; n; c; ts }

let service t = float_of_int t.n *. t.c

let buffers_of_msec t msec =
  Array.map
    (fun m ->
      Units.buffer_cells_of_msec ~msec:m ~service_cells_per_frame:(service t)
        ~ts:t.ts)
    msec

let aggregate_generator t rng =
  let sources =
    Array.init t.n (fun i ->
        t.model.Traffic.Process.spawn (Numerics.Rng.jump_to_substream rng i))
  in
  fun () ->
    let acc = ref 0.0 in
    for i = 0 to t.n - 1 do
      acc := !acc +. sources.(i) ()
    done;
    !acc

let clr_curve t ~buffers_msec ~frames ~reps ~seed =
  let buffers = buffers_of_msec t buffers_msec in
  Replication.curve_ci ~seed ~reps (fun rng ->
      let next_frame = aggregate_generator t rng in
      let results =
        Fluid_mux.clr_multi ~next_frame ~service:(service t) ~buffers ~frames ()
      in
      Array.map (fun r -> r.Fluid_mux.clr) results)
