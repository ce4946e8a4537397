type result = {
  log10_bop : float;
  bop : float;
  cts : Cts.analysis;
}

let log10_e = log10 (exp 1.0)

let evaluate vg ~mu ~c ~b ~n =
  assert (n >= 1);
  let cts = Cts.analyze vg ~mu ~c ~b in
  let exponent_nats = -.float_of_int n *. cts.Cts.rate in
  { log10_bop = exponent_nats *. log10_e; bop = exp exponent_nats; cts }
