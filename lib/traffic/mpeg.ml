type t = {
  pattern : float array;
  activity_rho : float;
  mean : float;
  activity_cv : float;
}

let normalize_pattern p =
  let total = Array.fold_left ( +. ) 0.0 p in
  assert (total > 0.0);
  let n = float_of_int (Array.length p) in
  Array.map (fun g -> g *. n /. total) p

let default_gop =
  normalize_pattern
    [| 5.0; 1.0; 1.0; 3.0; 1.0; 1.0; 3.0; 1.0; 1.0; 3.0; 1.0; 1.0 |]

let create ?(pattern = default_gop) ?(activity_rho = 0.98)
    ?(activity_cv = 0.12) ~mean () =
  if Array.length pattern = 0 then invalid_arg "Mpeg: empty GOP pattern";
  Array.iter (fun g -> if g <= 0.0 then invalid_arg "Mpeg: weights must be positive") pattern;
  if not (activity_rho >= 0.0 && activity_rho < 1.0) then
    invalid_arg "Mpeg: activity_rho outside [0, 1)";
  if not (mean > 0.0 && activity_cv > 0.0) then
    invalid_arg "Mpeg: mean and activity_cv must be positive";
  { pattern = normalize_pattern pattern; activity_rho; mean; activity_cv }

let period t = Array.length t.pattern

(* (1/P) sum_j g_j g_(j+k): the pattern's circular correlation. *)
let pattern_m2 t k =
  let p = period t in
  let acc = ref 0.0 in
  for j = 0 to p - 1 do
    acc := !acc +. (t.pattern.(j) *. t.pattern.((j + k) mod p))
  done;
  !acc /. float_of_int p

let frame_mean t = t.mean

(* Activity Y has mean mu, std cv*mu; X = g Y with random phase. *)
let autocovariance t k =
  let mu = t.mean in
  let sigma2 = (t.activity_cv *. mu) ** 2.0 in
  let m2 = pattern_m2 t (k mod period t) in
  (m2 *. ((sigma2 *. (t.activity_rho ** float_of_int k)) +. (mu *. mu)))
  -. (mu *. mu)

let frame_variance t = autocovariance t 0

let acf t k =
  assert (k >= 0);
  if k = 0 then 1.0 else autocovariance t k /. frame_variance t

let process t =
  let p = period t in
  let mu = t.mean in
  let activity_std = t.activity_cv *. mu in
  let spawn rng =
    let phase = ref (Numerics.Rng.int rng ~bound:p) in
    let dar =
      Dar.make
        (Dar.gaussian_marginal ~mean:mu ~variance:(activity_std *. activity_std))
        { Dar.rho = t.activity_rho; weights = [| 1.0 |] }
    in
    let activity = dar.Process.spawn (Numerics.Rng.split rng) in
    fun () ->
      let g = t.pattern.(!phase) in
      phase := (!phase + 1) mod p;
      g *. activity ()
  in
  {
    Process.name = Printf.sprintf "MPEG(GOP=%d,rho=%g)" p t.activity_rho;
    mean = frame_mean t;
    variance = frame_variance t;
    acf = acf t;
    hurst = None;
    (* GOP-periodic, with negative lags. *)
    tail = `Unknown;
    spawn;
  }
