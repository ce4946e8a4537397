let sum x =
  (* Kahan compensation keeps the long simulation averages accurate. *)
  let total = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let y = x.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let mean x =
  let n = Array.length x in
  assert (n > 0);
  sum x /. float_of_int n

let variance_population x =
  let n = Array.length x in
  assert (n >= 1);
  let m = mean x in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = x.(i) -. m in
    acc := !acc +. (d *. d)
  done;
  !acc /. float_of_int n

let variance x =
  let n = Array.length x in
  assert (n >= 2);
  variance_population x *. float_of_int n /. float_of_int (n - 1)

let std x = sqrt (variance x)

let min x =
  assert (Array.length x > 0);
  Array.fold_left Stdlib.min x.(0) x

let max x =
  assert (Array.length x > 0);
  Array.fold_left Stdlib.max x.(0) x

let prefix_sums x =
  let n = Array.length x in
  let out = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    out.(i + 1) <- out.(i) +. x.(i)
  done;
  out

let linspace ~lo ~hi ~n =
  assert (n >= 2);
  let step = (hi -. lo) /. float_of_int (n - 1) in
  Array.init n (fun i -> lo +. (step *. float_of_int i))

let logspace ~lo ~hi ~n =
  assert (n >= 2 && lo > 0.0 && hi > lo);
  let llo = log lo and lhi = log hi in
  Array.init n (fun i ->
      exp (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))

let map2 f a b =
  let n = Array.length a in
  assert (Array.length b = n);
  Array.init n (fun i -> f a.(i) b.(i))

(* N2 waiver: the division sits under the [total > 0.0] branch; a
   zero-sum array is left untouched by design. *)
let[@lint.allow "N2"] normalize_in_place x =
  let total = sum x in
  if total > 0.0 then
    for i = 0 to Array.length x - 1 do
      x.(i) <- x.(i) /. total
    done

let aggregate x ~block =
  assert (block >= 1);
  let n = Array.length x / block in
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for j = i * block to ((i + 1) * block) - 1 do
        acc := !acc +. x.(j)
      done;
      !acc /. float_of_int block)
