let check_d d =
  if not (d > 0.0 && d < 0.5) then
    invalid_arg (Printf.sprintf "Farima: d = %g outside (0, 0.5)" d)

let acf ~d k =
  check_d d;
  assert (k >= 0);
  if k = 0 then 1.0
  else begin
    let open Numerics.Special in
    let kf = float_of_int k in
    exp
      (log_gamma (kf +. d) +. log_gamma (1.0 -. d)
      -. log_gamma (kf -. d +. 1.0)
      -. log_gamma d)
  end

let ma_coefficients ~d ~n =
  check_d d;
  assert (n >= 1);
  let psi = Array.make n 1.0 in
  for j = 1 to n - 1 do
    let jf = float_of_int j in
    psi.(j) <- psi.(j - 1) *. (jf -. 1.0 +. d) /. jf
  done;
  psi

let process ?(truncation = 2048) ~d ~mean ~variance () =
  check_d d;
  assert (truncation >= 2 && variance > 0.0);
  let psi = ma_coefficients ~d ~n:truncation in
  (* Scale innovations so the truncated filter reproduces the requested
     marginal variance exactly. *)
  let sum_sq = Array.fold_left (fun acc p -> acc +. (p *. p)) 0.0 psi in
  let innovation_std = sqrt (variance /. sum_sq) in
  let spawn rng =
    let ring = Array.make truncation 0.0 in
    (* Warm the filter so the first emitted values are stationary. *)
    for i = 0 to truncation - 1 do
      ring.(i) <- Numerics.Dist.gaussian rng ~mean:0.0 ~std:innovation_std
    done;
    let pos = ref 0 in
    fun () ->
      ring.(!pos) <- Numerics.Dist.gaussian rng ~mean:0.0 ~std:innovation_std;
      (* ring.(pos) is eps_t; psi_j multiplies eps_(t-j). *)
      let acc = ref 0.0 in
      for j = 0 to truncation - 1 do
        acc := !acc +. (psi.(j) *. ring.((!pos - j + truncation) mod truncation))
      done;
      pos := (!pos + 1) mod truncation;
      mean +. !acc
  in
  {
    Process.name = Printf.sprintf "F-ARIMA(0,%g,0)" d;
    mean;
    variance;
    acf = acf ~d;
    hurst = Some (d +. 0.5);
    tail = `Unknown;
    spawn;
  }
