type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
}

let create ~lo ~hi ~bins =
  assert (hi > lo && bins > 0);
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
  }

let add t x =
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    let i = Stdlib.min i (Array.length t.counts - 1) in
    t.counts.(i) <- t.counts.(i) + 1
  end

let counts t = Array.copy t.counts
let underflow t = t.underflow
let overflow t = t.overflow
let lo t = t.lo
let hi t = t.hi

let copy t =
  {
    t with
    counts = Array.copy t.counts;
    underflow = t.underflow;
    overflow = t.overflow;
  }

let same_shape a b =
  Float.equal a.lo b.lo && Float.equal a.hi b.hi && Array.length a.counts = Array.length b.counts

let merge_into ~into t =
  if not (same_shape into t) then
    invalid_arg "Histogram.merge_into: incompatible bounds or bin counts";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.underflow <- into.underflow + t.underflow;
  into.overflow <- into.overflow + t.overflow

let merge a b =
  let m = copy a in
  merge_into ~into:m b;
  m

let total t =
  Array.fold_left ( + ) 0 t.counts + t.underflow + t.overflow

let bin_centers t =
  Array.init (Array.length t.counts) (fun i ->
      t.lo +. (t.width *. (float_of_int i +. 0.5)))

let density t =
  let n = total t in
  if n = 0 then Array.make (Array.length t.counts) 0.0
  else
    Array.map
      (fun c -> float_of_int c /. (float_of_int n *. t.width))
      t.counts

let chi_square_vs t ~cdf =
  let n = total t in
  assert (n > 0);
  let nf = float_of_int n in
  let bins = Array.length t.counts in
  let stat = ref 0.0 in
  for i = 0 to bins - 1 do
    let a = t.lo +. (t.width *. float_of_int i) in
    let b = a +. t.width in
    (* Edge bins absorb the corresponding tails so expected masses sum
       to one. *)
    let p_lo = if i = 0 then 0.0 else cdf a in
    let p_hi = if i = bins - 1 then 1.0 else cdf b in
    let expected = nf *. (p_hi -. p_lo) in
    let observed =
      float_of_int
        (t.counts.(i)
        + (if i = 0 then t.underflow else 0)
        + if i = bins - 1 then t.overflow else 0)
    in
    if expected > 0.0 then begin
      let d = observed -. expected in
      stat := !stat +. (d *. d /. expected)
    end
  done;
  !stat
