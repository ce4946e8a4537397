type source = {
  h : float;
  g : float;
  mu : float;
  variance : float;
}

let pi = 4.0 *. atan 1.0
let log10_e = log10 (exp 1.0)

let kappa h =
  assert (h > 0.0 && h < 1.0);
  (h ** h) *. ((1.0 -. h) ** (1.0 -. h))

let check { h; g; variance; _ } =
  assert (h >= 0.5 && h < 1.0);
  assert (g > 0.0 && g <= 1.0);
  assert (variance > 0.0)

let rate src ~c ~b =
  check src;
  assert (c > src.mu && b > 0.0);
  let k = kappa src.h in
  ((c -. src.mu) ** (2.0 *. src.h))
  *. (b ** (2.0 -. (2.0 *. src.h)))
  /. (2.0 *. src.g *. src.variance *. k *. k)

let j src ~c ~b ~n =
  assert (n >= 1);
  float_of_int n *. rate src ~c ~b

let log10_bop src ~c ~b ~n =
  let j = j src ~c ~b ~n in
  assert (j > 0.0);
  ((-.j) -. (0.5 *. log (4.0 *. pi *. j))) *. log10_e
