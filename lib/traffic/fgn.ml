let check_h h =
  if not (h > 0.0 && h < 1.0) then
    invalid_arg (Printf.sprintf "Fgn: H = %g outside (0, 1)" h)

let acf ~h k =
  check_h h;
  assert (k >= 0);
  if k = 0 then 1.0
  else begin
    let e = 2.0 *. h in
    let kf = float_of_int k in
    0.5 *. (((kf +. 1.0) ** e) -. (2.0 *. (kf ** e)) +. ((kf -. 1.0) ** e))
  end

let sample_davies_harte rng ~h ~n =
  check_h h;
  assert (n >= 1);
  (* Build the first row of the circulant embedding of the (2m)-point
     covariance, take its FFT to get eigenvalues, then synthesise. *)
  let m = Numerics.Fft.next_pow2 n in
  let size = 2 * m in
  let row = Array.make size 0.0 in
  for k = 0 to m do
    let v = acf ~h k in
    row.(k) <- v;
    if k > 0 && k < m then row.(size - k) <- v
  done;
  let re = Array.copy row and im = Array.make size 0.0 in
  Numerics.Fft.forward ~re ~im;
  let eigen = re in
  Array.iteri
    (fun i v ->
      if v < -1e-6 then
        failwith
          (Printf.sprintf "Fgn: negative circulant eigenvalue %g at %d" v i)
      else if v < 0.0 then eigen.(i) <- 0.0)
    eigen;
  (* Complex Gaussian spectrum with the right symmetry. *)
  let wre = Array.make size 0.0 and wim = Array.make size 0.0 in
  let scale = 1.0 /. sqrt (2.0 *. float_of_int size) in
  wre.(0) <- sqrt eigen.(0) *. Numerics.Dist.standard_gaussian rng /. sqrt (float_of_int size);
  wre.(m) <- sqrt eigen.(m) *. Numerics.Dist.standard_gaussian rng /. sqrt (float_of_int size);
  for k = 1 to m - 1 do
    let s = sqrt eigen.(k) *. scale in
    let g1 = Numerics.Dist.standard_gaussian rng in
    let g2 = Numerics.Dist.standard_gaussian rng in
    wre.(k) <- s *. g1;
    wim.(k) <- s *. g2;
    wre.(size - k) <- s *. g1;
    wim.(size - k) <- -.(s *. g2)
  done;
  (* The inverse FFT of this Hermitian spectrum is real with the target
     covariance; our [inverse] divides by size, so compensate. *)
  Numerics.Fft.inverse ~re:wre ~im:wim;
  Array.init n (fun i -> wre.(i) *. float_of_int size)

let sample_hosking rng ~h ~n =
  check_h h;
  assert (n >= 1);
  let out = Array.make n 0.0 in
  let phi = Array.make n 0.0 in
  let prev = Array.make n 0.0 in
  let v = ref 1.0 in
  out.(0) <- Numerics.Dist.standard_gaussian rng;
  for t = 1 to n - 1 do
    (* Durbin-Levinson update of the prediction coefficients. *)
    let num = ref (acf ~h t) in
    for j = 1 to t - 1 do
      num := !num -. (prev.(j - 1) *. acf ~h (t - j))
    done;
    let phi_tt = !num /. !v in
    phi.(t - 1) <- phi_tt;
    for j = 1 to t - 1 do
      phi.(j - 1) <- prev.(j - 1) -. (phi_tt *. prev.(t - 1 - j))
    done;
    v := !v *. (1.0 -. (phi_tt *. phi_tt));
    let mean = ref 0.0 in
    for j = 1 to t do
      mean := !mean +. (phi.(j - 1) *. out.(t - j))
    done;
    out.(t) <- !mean +. (sqrt !v *. Numerics.Dist.standard_gaussian rng);
    Array.blit phi 0 prev 0 t
  done;
  out

let process ?(block = 65536) ~h ~mean ~variance () =
  check_h h;
  assert (block >= 2 && variance > 0.0);
  let std = sqrt variance in
  let spawn rng =
    let buffer = ref [||] in
    let pos = ref 0 in
    fun () ->
      if !pos >= Array.length !buffer then begin
        buffer := sample_davies_harte rng ~h ~n:block;
        pos := 0
      end;
      let v = mean +. (std *. !buffer.(!pos)) in
      incr pos;
      v
  in
  {
    Process.name = Printf.sprintf "fGn(H=%g)" h;
    mean;
    variance;
    acf = acf ~h;
    hurst = Some h;
    tail = `Unknown;
    spawn;
  }
