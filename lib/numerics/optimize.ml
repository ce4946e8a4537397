let golden_ratio = (sqrt 5.0 -. 1.0) /. 2.0

let golden_section ~f ~lo ~hi ~tol =
  assert (hi > lo && tol > 0.0);
  let rec loop a b x1 x2 f1 f2 =
    if b -. a <= tol then (a +. b) /. 2.0
    else if f1 < f2 then begin
      let b = x2 and x2 = x1 and f2 = f1 in
      let x1 = b -. (golden_ratio *. (b -. a)) in
      loop a b x1 x2 (f x1) f2
    end
    else begin
      let a = x1 and x1 = x2 and f1 = f2 in
      let x2 = a +. (golden_ratio *. (b -. a)) in
      loop a b x1 x2 f1 (f x2)
    end
  in
  let x1 = hi -. (golden_ratio *. (hi -. lo)) in
  let x2 = lo +. (golden_ratio *. (hi -. lo)) in
  loop lo hi x1 x2 (f x1) (f x2)

type integer_argmin = { argmin : int; minimum : float; scanned_up_to : int }

let integer_argmin ~f ~lo ?(hard_cap = 2_000_000) ~stop () =
  assert (lo <= hard_cap);
  let best = ref (f lo) in
  let best_at = ref lo in
  let m = ref lo in
  let stopped = ref false in
  while (not !stopped) && !m < hard_cap do
    incr m;
    let value = f !m in
    if value < !best then begin
      best := value;
      best_at := !m
    end;
    if stop ~best:!best ~at:!m ~current:value then stopped := true
  done;
  { argmin = !best_at; minimum = !best; scanned_up_to = !m }
