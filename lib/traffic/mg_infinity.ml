type params = {
  beta : float;
  session_rate : float;
  cells_per_session : float;
}

let create ~beta ~session_rate ?(cells_per_session = 1.0) () =
  if not (beta > 1.0 && beta < 2.0) then
    invalid_arg (Printf.sprintf "Mg_infinity: beta = %g outside (1, 2)" beta);
  if not (session_rate > 0.0 && cells_per_session > 0.0) then
    invalid_arg "Mg_infinity: rates must be positive";
  { beta; session_rate; cells_per_session }

(* Sum_{n >= n0} n^(-beta), exact head plus Euler–Maclaurin tail. *)
let zeta_tail ~beta ~n0 =
  assert (n0 >= 1);
  let cut = Stdlib.max (n0 + 64) 256 in
  let head = ref 0.0 in
  for n = n0 to cut - 1 do
    head := !head +. (float_of_int n ** -.beta)
  done;
  let c = float_of_int cut in
  (* integral + half-term + first derivative correction *)
  let tail =
    (c ** (1.0 -. beta)) /. (beta -. 1.0)
    +. (0.5 *. (c ** -.beta))
    -. (beta /. 12.0 *. (c ** (-.beta -. 1.0)))
  in
  !head +. tail

(* E[(L - k)^+] = sum_{j >= k} P(L > j) = sum_{n >= k+1} n^(-beta). *)
let mean_excess t k = zeta_tail ~beta:t.beta ~n0:(k + 1)
let mean_holding t = mean_excess t 0

let acf t k =
  assert (k >= 0);
  if k = 0 then 1.0 else mean_excess t k /. mean_holding t

let hurst t = (3.0 -. t.beta) /. 2.0

let frame_mean t = t.cells_per_session *. t.session_rate *. mean_holding t

let frame_variance t =
  (* Active-session count is Poisson; scaling by c multiplies the
     variance by c^2. *)
  t.cells_per_session *. t.cells_per_session *. t.session_rate
  *. mean_holding t

let sample_holding t rng =
  (* Inverse transform of P(L > j) = (1+j)^(-beta). *)
  let u = Numerics.Rng.float rng in
  let l = int_of_float (ceil ((u ** (-1.0 /. t.beta)) -. 1.0)) in
  Stdlib.max 1 l

(* Residual holding time of a session in progress at time 0: the
   length-biased residual decomposition for the discrete Pareto gives
   P(residual = r) proportional to P(L > r - 1), r >= 1.  The residual
   has infinite mean, so inversion must not scan linearly: we binary
   search the monotone partial-sum function instead. *)
let sample_equilibrium_residual t rng =
  let total = mean_holding t in
  let u = Numerics.Rng.float rng *. total in
  (* partial r = sum_{n=1..r} n^-beta, the unnormalised residual CDF. *)
  let partial r = total -. zeta_tail ~beta:t.beta ~n0:(r + 1) in
  if u <= partial 1 then 1
  else begin
    (* Exponential bracket then bisection on the smallest r with
       partial r >= u. *)
    let rec bracket hi = if partial hi >= u then hi else bracket (2 * hi) in
    let hi = bracket 2 in
    let rec bisect lo hi =
      (* invariant: partial lo < u <= partial hi *)
      if hi - lo <= 1 then hi
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if partial mid >= u then bisect lo mid else bisect mid hi
      end
    in
    bisect (hi / 2) hi
  end

let process t =
  let spawn rng =
    (* Departure counts are scheduled in a hashtable keyed by absolute
       frame index; holding times are unbounded so a ring buffer would
       not do. *)
    let departures : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let schedule at =
      Hashtbl.replace departures at
        (1 + Option.value ~default:0 (Hashtbl.find_opt departures at))
    in
    let now = ref 0 in
    let active = ref 0 in
    (* Stationary start: Poisson(rate * E L) sessions in progress, each
       with an equilibrium residual. *)
    let initial =
      Numerics.Dist.poisson rng ~mean:(t.session_rate *. mean_holding t)
    in
    for _ = 1 to initial do
      incr active;
      schedule (!now + sample_equilibrium_residual t rng)
    done;
    fun () ->
      (* Departures scheduled for this slot happen first: a session
         arriving at slot s with holding L occupies slots s .. s+L-1
         and its departure is scheduled at s+L. *)
      (match Hashtbl.find_opt departures !now with
      | Some d ->
          active := !active - d;
          Hashtbl.remove departures !now
      | None -> ());
      let arrivals = Numerics.Dist.poisson rng ~mean:t.session_rate in
      for _ = 1 to arrivals do
        incr active;
        schedule (!now + sample_holding t rng)
      done;
      let count = !active in
      incr now;
      t.cells_per_session *. float_of_int count
  in
  {
    Process.name = Printf.sprintf "M/G/inf(beta=%g)" t.beta;
    mean = frame_mean t;
    variance = frame_variance t;
    acf = acf t;
    hurst = Some (hurst t);
    tail = `Unknown;
    spawn;
  }
