type marginal = {
  sample : Numerics.Rng.t -> float;
  mean : float;
  variance : float;
}

let gaussian_marginal ~mean ~variance =
  assert (variance > 0.0);
  let std = sqrt variance in
  { sample = (fun rng -> Numerics.Dist.gaussian rng ~mean ~std); mean; variance }

let negative_binomial_marginal ~mean ~variance =
  assert (mean > 0.0 && variance > mean);
  {
    sample =
      (fun rng ->
        float_of_int
          (Numerics.Dist.negative_binomial_of_moments rng ~mean ~variance));
    mean;
    variance;
  }

let gamma_marginal ~mean ~variance =
  assert (mean > 0.0 && variance > 0.0);
  let shape = mean *. mean /. variance in
  let scale = variance /. mean in
  {
    sample = (fun rng -> Numerics.Dist.gamma rng ~shape ~scale);
    mean;
    variance;
  }

type params = { rho : float; weights : float array }

let order { weights; _ } = Array.length weights

let validate { rho; weights } =
  if not (rho >= 0.0 && rho < 1.0) then
    invalid_arg (Printf.sprintf "Dar: rho = %g outside [0, 1)" rho);
  if Array.length weights = 0 then invalid_arg "Dar: empty weight vector";
  Array.iter
    (fun a ->
      if a < -1e-12 then invalid_arg (Printf.sprintf "Dar: negative weight %g" a))
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg (Printf.sprintf "Dar: weights sum to %g, expected 1" total)

(* Dense linear solve by Gaussian elimination with partial pivoting;
   sizes here are the DAR order p, i.e. tiny. *)
let solve_linear a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < 1e-14 then
      invalid_arg "Dar: singular linear system";
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = a.(row).(col) /. a.(col).(col) in
      for j = col to n - 1 do
        a.(row).(j) <- a.(row).(j) -. (factor *. a.(col).(j))
      done;
      b.(row) <- b.(row) -. (factor *. b.(col))
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let acc = ref b.(row) in
    for j = row + 1 to n - 1 do
      acc := !acc -. (a.(row).(j) *. x.(j))
    done;
    x.(row) <- !acc /. a.(row).(row)
  done;
  x

(* r(k) = sum_i rho a_i r(|k - i|), r(0) = 1.  For k < p the equations
   are implicit (r(k) appears on the right through the reflected lags),
   so the first p-1 autocorrelations come from a linear solve; beyond
   that the recursion is explicit. *)
let acf_head params =
  let p = order params in
  let phi i = params.rho *. params.weights.(i - 1) in
  if p = 1 then [||]
  else begin
    (* Unknowns x_j = r(j), j = 1..p-1:
       x_k - sum_(i <> k) phi_i x_(|k-i|) = phi_k. *)
    let n = p - 1 in
    let a = Array.make_matrix n n 0.0 in
    let b = Array.make n 0.0 in
    for k = 1 to n do
      a.(k - 1).(k - 1) <- 1.0;
      b.(k - 1) <- phi k;
      for i = 1 to p do
        if i <> k then begin
          let lag = abs (k - i) in
          if lag = 0 then assert false
          else if lag <= n then
            a.(k - 1).(lag - 1) <- a.(k - 1).(lag - 1) -. phi i
          else
            (* |k - i| can reach p - 1 at most since k <= p-1, i <= p;
               lag <= n always holds. *)
            assert false
        end
      done
    done;
    solve_linear a b
  end

let acf_table params ~up_to =
  let p = order params in
  let head = acf_head params in
  let r = Array.make (up_to + 1) 0.0 in
  r.(0) <- 1.0;
  for k = 1 to Stdlib.min up_to (p - 1) do
    r.(k) <- head.(k - 1)
  done;
  for k = p to up_to do
    let acc = ref 0.0 in
    for i = 1 to p do
      acc := !acc +. (params.weights.(i - 1) *. r.(k - i))
    done;
    r.(k) <- params.rho *. !acc
  done;
  r

let acf params k =
  assert (k >= 0);
  (acf_table params ~up_to:k).(k)

let acf_fun params =
  let table = ref (acf_table params ~up_to:64) in
  fun k ->
    assert (k >= 0);
    if k >= Array.length !table then begin
      let bigger = Stdlib.max k (2 * Array.length !table) in
      table := acf_table params ~up_to:bigger
    end;
    !table.(k)

let make ?name marginal params =
  validate params;
  let p = order params in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "DAR(%d)" p
  in
  let r = acf_fun params in
  let spawn rng =
    (* Ring buffer of the last p values, seeded i.i.d. from the
       marginal; the short correlation transient dies within a few
       multiples of p lags and is absorbed by simulation warmup. *)
    let history = Array.init p (fun _ -> marginal.sample rng) in
    let pos = ref 0 in
    fun () ->
      let value =
        if Numerics.Rng.float rng < params.rho then begin
          (* Reuse the value from A_n frames ago. *)
          let back = 1 + Numerics.Dist.categorical rng ~weights:params.weights in
          history.((!pos - back + (2 * p)) mod p)
        end
        else marginal.sample rng
      in
      history.(!pos) <- value;
      pos := (!pos + 1) mod p;
      value
  in
  {
    Process.name;
    mean = marginal.mean;
    variance = marginal.variance;
    acf = r;
    hurst = None;
    (* [acf_table] computes r(k) = rho (w_1 r(k-1) + ...) for k >= p;
       with one lag that is rho^k, non-increasing also as rounded. *)
    tail = (if p = 1 then `Decreasing else `Recurrent p);
    spawn;
  }

(* Solve the p x p symmetric Toeplitz Yule-Walker system
   R phi = rho_vec (p is tiny here, so dense elimination is fine). *)
let solve_yule_walker ~target_acf ~p =
  let a = Array.make_matrix p p 0.0 in
  let b = Array.make p 0.0 in
  for i = 0 to p - 1 do
    b.(i) <- target_acf (i + 1);
    for j = 0 to p - 1 do
      a.(i).(j) <- target_acf (abs (i - j))
    done
  done;
  solve_linear a b

let fit ~target_acf ~p =
  assert (p >= 1);
  let phi = solve_yule_walker ~target_acf ~p in
  let rho = Array.fold_left ( +. ) 0.0 phi in
  if not (rho > 0.0 && rho < 1.0) then
    invalid_arg (Printf.sprintf "Dar.fit: implied rho = %g outside (0, 1)" rho);
  let weights = Array.map (fun c -> c /. rho) phi in
  Array.iteri
    (fun i w ->
      if w < -1e-9 then
        invalid_arg
          (Printf.sprintf "Dar.fit: weight a_%d = %g < 0; no DAR(%d) matches"
             (i + 1) w p))
    weights;
  (* Clamp the tiny negative rounding noise allowed above. *)
  let weights = Array.map (fun w -> Stdlib.max 0.0 w) weights in
  Numerics.Float_array.normalize_in_place weights;
  { rho; weights }

let fit_process ?name marginal ~target_acf ~p =
  let params = fit ~target_acf ~p in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "DAR(%d)[fit]" p
  in
  make ~name marginal params
