let exponential rng ~rate =
  assert (rate > 0.0);
  -.log (Rng.float rng) /. rate

(* N2 waiver: the rejection test pins s to (0, 1) before the log and
   the division ever run. *)
let[@lint.allow "N2"] standard_gaussian rng =
  (* Marsaglia polar method; no state is cached so successive draws on
     the same generator stay independent of call sites. *)
  let rec loop () =
    let u = (2.0 *. Rng.float rng) -. 1.0 in
    let v = (2.0 *. Rng.float rng) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || Float.equal s 0.0 then loop ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  loop ()

let gaussian rng ~mean ~std =
  assert (std >= 0.0);
  mean +. (std *. standard_gaussian rng)

(* Poisson via inversion-by-multiplication: valid for small means. *)
let poisson_small rng mean =
  assert (mean >= 0.0);
  let limit = exp (-.mean) in
  let rec loop k prod =
    let prod = prod *. Rng.float rng in
    if prod <= limit then k else loop (k + 1) prod
  in
  loop 0 1.0

(* PTRD: W. Hörmann, "The transformed rejection method for generating
   Poisson random variables", Insurance: Mathematics and Economics 12
   (1993).  O(1) expected time for mean >= ~10. *)
let poisson_ptrd rng mu =
  (* The transformed-rejection constants below assume the mean is well
     into the PTRD regime. *)
  assert (mu >= 10.0);
  let smu = sqrt mu in
  let b = 0.931 +. (2.53 *. smu) in
  let a = -0.059 +. (0.02483 *. b) in
  let inv_alpha = 1.1239 +. (1.1328 /. (b -. 3.4)) in
  let v_r = 0.9277 -. (3.6224 /. (b -. 2.0)) in
  let log_mu = log mu in
  let rec loop () =
    let u = Rng.float rng -. 0.5 in
    let v = Rng.float rng in
    let us = 0.5 -. Float.abs u in
    let k = Float.to_int (floor ((((2.0 *. a) /. us) +. b) *. u +. mu +. 0.43)) in
    if us >= 0.07 && v <= v_r then k
    else if k < 0 || (us < 0.013 && v > us) then loop ()
    else begin
      let log_v =
        log (v *. inv_alpha /. ((a /. (us *. us)) +. b))
      in
      let fk = float_of_int k in
      let log_p = (fk *. log_mu) -. mu -. Special.log_factorial k in
      if log_v <= log_p then k else loop ()
    end
  in
  loop ()

let poisson rng ~mean =
  assert (mean >= 0.0);
  if Float.equal mean 0.0 then 0
  else if mean < 12.0 then poisson_small rng mean
  else poisson_ptrd rng mean

let pareto rng ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  scale /. (Rng.float rng ** (1.0 /. shape))

let binomial rng ~n ~p =
  assert (n >= 0);
  assert (p >= 0.0 && p <= 1.0);
  if Float.equal p 0.0 || n = 0 then 0
  else if Float.equal p 1.0 then n
  else if float_of_int n *. p < 30.0 then begin
    (* Inversion over the geometric number of failures between
       successes: O(n p) expected. *)
    let log_q = log (1.0 -. p) in
    let rec loop count pos =
      let jump = Float.to_int (floor (log (Rng.float rng) /. log_q)) in
      let pos = pos + jump + 1 in
      if pos > n then count else loop (count + 1) pos
    in
    loop 0 0
  end
  else begin
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.float rng < p then incr count
    done;
    !count
  end

let geometric rng ~p =
  assert (p > 0.0 && p <= 1.0);
  if Float.equal p 1.0 then 0
  else Float.to_int (floor (log (Rng.float rng) /. log (1.0 -. p)))

(* Marsaglia & Tsang (2000): rejection from a squeezed Gaussian; a
   couple of iterations on average for any shape >= 1. *)
let rec gamma rng ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  if shape < 1.0 then begin
    (* Boost: Gamma(a) = Gamma(a+1) * U^(1/a). *)
    let boost = Rng.float rng ** (1.0 /. shape) in
    gamma rng ~shape:(shape +. 1.0) ~scale *. boost
  end
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec loop () =
      let x = standard_gaussian rng in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then loop ()
      else begin
        let v = v *. v *. v in
        let u = Rng.float rng in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v +. log v)) then d *. v
        else loop ()
      end
    in
    scale *. loop ()
  end

let negative_binomial rng ~r ~p =
  assert (r > 0.0 && p > 0.0 && p <= 1.0);
  if Float.equal p 1.0 then 0
  else begin
    (* Gamma-Poisson mixture: lambda ~ Gamma(r, (1-p)/p), X ~ Poisson(lambda). *)
    let lambda = gamma rng ~shape:r ~scale:((1.0 -. p) /. p) in
    poisson rng ~mean:lambda
  end

let negative_binomial_of_moments rng ~mean ~variance =
  assert (mean > 0.0 && variance > mean);
  let p = mean /. variance in
  let r = mean *. p /. (1.0 -. p) in
  negative_binomial rng ~r ~p

let categorical rng ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  assert (total > 0.0);
  let u = Rng.float rng *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else begin
      let acc = acc +. weights.(i) in
      if u < acc then i else scan (i + 1) acc
    end
  in
  scan 0 0.0

let discrete_cdf_sample rng ~cdf =
  let u = Rng.float rng in
  let n = Array.length cdf in
  assert (n > 0);
  (* Smallest index with cdf.(i) >= u. *)
  let rec bisect lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then bisect lo mid else bisect (mid + 1) hi
    end
  in
  bisect 0 (n - 1)
