let autocovariance x ~max_lag =
  let n = Array.length x in
  assert (n > max_lag && max_lag >= 0);
  let mean = Numerics.Float_array.mean x in
  let nf = float_of_int n in
  Array.init (max_lag + 1) (fun k ->
      let acc = ref 0.0 in
      for t = 0 to n - 1 - k do
        acc := !acc +. ((x.(t) -. mean) *. (x.(t + k) -. mean))
      done;
      !acc /. nf)

let normalize gamma =
  assert (Array.length gamma > 0);
  let g0 = gamma.(0) in
  if Float.equal g0 0.0 then Array.map (fun _ -> 0.0) gamma
  else Array.map (fun g -> g /. g0) gamma

let autocorrelation x ~max_lag =
  let r = normalize (autocovariance x ~max_lag) in
  if Array.length r > 0 && Float.equal r.(0) 0.0 then r.(0) <- 1.0;
  r

let autocovariance_fft x ~max_lag =
  let n = Array.length x in
  assert (n > max_lag && max_lag >= 0);
  let mean = Numerics.Float_array.mean x in
  (* Zero-pad to 2n to make circular convolution linear. *)
  let m = Numerics.Fft.next_pow2 (2 * n) in
  let re = Array.make m 0.0 and im = Array.make m 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- x.(i) -. mean
  done;
  Numerics.Fft.forward ~re ~im;
  for i = 0 to m - 1 do
    re.(i) <- (re.(i) *. re.(i)) +. (im.(i) *. im.(i));
    im.(i) <- 0.0
  done;
  Numerics.Fft.inverse ~re ~im;
  Array.init (max_lag + 1) (fun k -> re.(k) /. float_of_int n)

let autocorrelation_fft x ~max_lag =
  let r = normalize (autocovariance_fft x ~max_lag) in
  if Array.length r > 0 && Float.equal r.(0) 0.0 then r.(0) <- 1.0;
  r
