type t = { mean : float }

let normalize_pattern p =
  let total = Array.fold_left ( +. ) 0.0 p in
  assert (total > 0.0);
  let n = float_of_int (Array.length p) in
  Array.map (fun g -> g *. n /. total) p

let default_gop =
  normalize_pattern
    [| 5.0; 1.0; 1.0; 3.0; 1.0; 1.0; 3.0; 1.0; 1.0; 3.0; 1.0; 1.0 |]

(* The model's GOP weights: [default_gop] normalised a second time.
   The second pass moves weights by an ulp, and every MPEG figure and
   trace is pinned to those bits. *)
let pattern = normalize_pattern default_gop

(* Scene persistence, and the activity's coefficient of variation. *)
let activity_rho = 0.98
let activity_cv = 0.12

let create ~mean () =
  if not (mean > 0.0) then invalid_arg "Mpeg: mean must be positive";
  { mean }

let period = Array.length pattern

(* (1/P) sum_j g_j g_(j+k): the pattern's circular correlation. *)
let pattern_m2 k =
  let acc = ref 0.0 in
  for j = 0 to period - 1 do
    acc := !acc +. (pattern.(j) *. pattern.((j + k) mod period))
  done;
  !acc /. float_of_int period

let frame_mean t = t.mean

(* Activity Y has mean mu, std cv*mu; X = g Y with random phase. *)
let autocovariance t k =
  let mu = t.mean in
  let sigma2 = (activity_cv *. mu) ** 2.0 in
  let m2 = pattern_m2 (k mod period) in
  (m2 *. ((sigma2 *. (activity_rho ** float_of_int k)) +. (mu *. mu)))
  -. (mu *. mu)

let frame_variance t = autocovariance t 0

let acf t k =
  assert (k >= 0);
  if k = 0 then 1.0 else autocovariance t k /. frame_variance t

let process t =
  let mu = t.mean in
  let activity_std = activity_cv *. mu in
  let spawn rng =
    let phase = ref (Numerics.Rng.int rng ~bound:period) in
    let dar =
      Dar.make
        (Dar.gaussian_marginal ~mean:mu ~variance:(activity_std *. activity_std))
        { Dar.rho = activity_rho; weights = [| 1.0 |] }
    in
    let activity = dar.Process.spawn (Numerics.Rng.split rng) in
    fun () ->
      let g = pattern.(!phase) in
      phase := (!phase + 1) mod period;
      g *. activity ()
  in
  {
    Process.name = Printf.sprintf "MPEG(GOP=%d,rho=%g)" period activity_rho;
    mean = frame_mean t;
    variance = frame_variance t;
    acf = acf t;
    hurst = None;
    (* GOP-periodic, with negative lags. *)
    tail = `Unknown;
    spawn;
  }
