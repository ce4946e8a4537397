let capacity_margin vg ~mu ~n ~total_buffer ~target_clr =
  assert (n >= 1 && target_clr > 0.0 && target_clr < 1.0);
  let nf = float_of_int n in
  let log10_target = log10 target_clr and b = total_buffer /. nf in
  (* [log10_bop -. log10_target <= 0.] exactly when [log10_bop <=
     log10_target]: with gradual underflow a rounded difference has the
     sign of the exact one. *)
  fun capacity ->
    let c = capacity /. nf in
    if c <= mu then infinity
    else (Bahadur_rao.evaluate vg ~mu ~c ~b ~n).Bahadur_rao.log10_bop -. log10_target

let max_admissible vg ~mu ~total_capacity ~total_buffer ~target_clr =
  assert (target_clr > 0.0 && target_clr < 1.0);
  assert (total_capacity > 0.0 && total_buffer >= 0.0 && mu > 0.0);
  let feasible n =
    capacity_margin vg ~mu ~n ~total_buffer ~target_clr total_capacity <= 0.0
  in
  let ceiling = int_of_float (ceil (total_capacity /. mu)) - 1 in
  if ceiling < 1 then 0
  else if not (feasible 1) then 0
  else begin
    (* BOP is increasing in n at fixed C, so feasibility is a prefix
       property: binary search for the last feasible n. *)
    let rec bisect lo hi =
      (* invariant: lo feasible, hi + 1 infeasible or hi = ceiling *)
      if lo >= hi then lo
      else begin
        let mid = lo + ((hi - lo + 1) / 2) in
        if feasible mid then bisect mid hi else bisect lo (mid - 1)
      end
    in
    bisect 1 ceiling
  end

(* {2 The effective-bandwidth search} *)

let c_replay_fallbacks = Obs.Registry.Counter.v "admission.replay_fallbacks"

(* A NaN margin is neither side of the threshold: reading it as
   "inadmissible" would silently raise the answer, or double the
   capacity forever.  Raise instead, for the caller to contain. *)
let admissible g =
  if Float.is_nan g then raise (Resilience.Guard.Non_finite "core.admission.margin");
  g <= 0.0

let doubled capacity =
  let next = capacity *. 2.0 in
  if Float.is_finite next then next
  else raise (Resilience.Guard.Non_finite "core.admission.capacity")

(* The reference search, the one copy of it: double from 1.01x the
   mean load until a capacity is admissible, then bisect to 0.01
   cells/frame.  [ok] answers admissibility. *)
let bisection ~mean_load ~ok =
  let first = mean_load *. 1.01 in
  let rec upper capacity = if ok capacity then capacity else upper (doubled capacity) in
  let hi = upper first in
  let lo = if Float.equal hi first then mean_load else hi /. 2.0 in
  let rec bisect lo hi =
    if hi -. lo <= 0.01 then hi
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if ok mid then bisect lo mid else bisect mid hi
    end
  in
  bisect lo hi

let reference_capacity_search ~mean_load ~margin =
  bisection ~mean_load ~ok:(fun capacity -> admissible (margin capacity))

(* The replay.  Every evaluation tightens a bracket: [fail], the
   largest capacity evaluated inadmissible (the mean load to start
   with, the reference's never-evaluated lower end), and [pass], the
   smallest evaluated admissible, each with its margin.  If the margin
   is monotone in the capacity, every point at or below [fail] is
   inadmissible and every point at or above [pass] admissible, so the
   reference search can be replayed against the bracket, evaluating
   only the points strictly inside it.  Those are few once the bracket
   is narrow, and the costly evaluations close to the mean load (where
   m* is large) are made only when the threshold is close to it too. *)
let capacity_search ~mean_load ~margin =
  assert (mean_load > 0.0);
  let fail = ref mean_load and fail_g = ref infinity in
  let pass = ref infinity and pass_g = ref neg_infinity in
  let eval capacity =
    let g = margin capacity in
    if admissible g then begin
      if capacity < !pass then begin
        pass := capacity;
        pass_g := g
      end
    end
    else if capacity > !fail then begin
      fail := capacity;
      fail_g := g
    end;
    g
  in
  let passes capacity = eval capacity <= 0.0 in
  (* 1. Bracket top-down, from the reference's second point, 2.02x the
     mean load: double until admissible, or else halve the distance to
     the mean load until inadmissible, but not below the reference's
     first point, 1.01x. *)
  let first = mean_load *. 1.01 in
  let rec up capacity = if not (passes capacity) then up (doubled capacity) in
  up (doubled first);
  let rec down above =
    let next = mean_load +. ((above -. mean_load) /. 2.0) in
    if next <= first then ignore (passes first)
    else if passes next then down next
  in
  if Float.equal !fail mean_load then down !pass;
  (* 2. Narrow the bracket to 0.002 cells/frame.  Brent asks for its two
     ends first, answered from memory, then only for points inside; it
     is skipped when its precondition, finite margins of opposite
     signs, does not hold (e.g. when 1.01x is admissible, the failing
     end is the unevaluated mean load), and abandoned on any other
     point (a NaN iterate).  Step 3 is exact whatever it leaves. *)
  let ends = !fail_g *. !pass_g in
  if Float.is_finite ends && ends < 0.0 then begin
    let probe capacity =
      if Float.equal capacity !fail then !fail_g
      else if Float.equal capacity !pass then !pass_g
      else if capacity > !fail && capacity < !pass then eval capacity
      else raise Exit
    in
    match Numerics.Roots.brent ~f:probe ~lo:!fail ~hi:!pass ~tol:0.002 with
    | _ -> ()
    | exception Exit -> ()
  end;
  (* 3. Replay the reference against the bracket. *)
  let answer =
    bisection ~mean_load ~ok:(fun capacity ->
        if capacity <= !fail then false
        else if capacity >= !pass then true
        else passes capacity)
  in
  (* [pass] is always an evaluated point, so an answer equal to it was
     evaluated admissible.  Any other answer lies above it and was
     inferred: evaluate it.  If it fails the margin is not monotone,
     the inferences may be wrong, and the reference decides. *)
  if Float.equal answer !pass || passes answer then answer
  else begin
    Obs.Registry.Counter.incr c_replay_fallbacks;
    reference_capacity_search ~mean_load ~margin
  end

let required_capacity vg ~mu ~n ~total_buffer ~target_clr =
  assert (n >= 1 && target_clr > 0.0 && target_clr < 1.0);
  capacity_search
    ~mean_load:(float_of_int n *. mu)
    ~margin:(capacity_margin vg ~mu ~n ~total_buffer ~target_clr)

let effective_bandwidth_per_source vg ~mu ~n ~total_buffer ~target_clr =
  assert (n >= 1);
  required_capacity vg ~mu ~n ~total_buffer ~target_clr /. float_of_int n
