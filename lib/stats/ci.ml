type interval = { point : float; half_width : float; level : float }

let mean_ci ?(level = 0.95) x =
  let n = Array.length x in
  assert (n >= 2);
  assert (level > 0.0 && level < 1.0);
  let mean = Numerics.Float_array.mean x in
  let s = Numerics.Float_array.std x in
  let t =
    Numerics.Special.student_t_quantile ~df:(n - 1) (1.0 -. ((1.0 -. level) /. 2.0))
  in
  { point = mean; half_width = t *. s /. sqrt (float_of_int n); level }

let batch_means_ci ?(level = 0.95) ?(batches = 20) x =
  assert (batches >= 2);
  assert (Array.length x >= 2 * batches);
  let batch_size = Array.length x / batches in
  let means =
    Array.init batches (fun b ->
        let acc = ref 0.0 in
        for i = b * batch_size to ((b + 1) * batch_size) - 1 do
          acc := !acc +. x.(i)
        done;
        !acc /. float_of_int batch_size)
  in
  mean_ci ~level means

let relative_half_width { point; half_width; _ } =
  if Float.equal point 0.0 then infinity else half_width /. Float.abs point

let log10_interval { point; half_width; _ } =
  let tiny = 1e-300 in
  let lo = Stdlib.max tiny (point -. half_width) in
  let hi = Stdlib.max tiny (point +. half_width) in
  (log10 lo, log10 hi)
