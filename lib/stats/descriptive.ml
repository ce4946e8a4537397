type summary = {
  n : int;
  mean : float;
  variance : float;
  std : float;
  skewness : float;
  kurtosis_excess : float;
  min : float;
  max : float;
}

let summarize x =
  let n = Array.length x in
  assert (n >= 2);
  let nf = float_of_int n in
  let mean = Numerics.Float_array.mean x in
  let m2 = ref 0.0 and m3 = ref 0.0 and m4 = ref 0.0 in
  for i = 0 to n - 1 do
    let d = x.(i) -. mean in
    let d2 = d *. d in
    m2 := !m2 +. d2;
    m3 := !m3 +. (d2 *. d);
    m4 := !m4 +. (d2 *. d2)
  done;
  let m2 = !m2 /. nf and m3 = !m3 /. nf and m4 = !m4 /. nf in
  let variance = m2 *. nf /. (nf -. 1.0) in
  let std_pop = sqrt m2 in
  let skewness = if m2 > 0.0 then m3 /. (std_pop ** 3.0) else 0.0 in
  let kurtosis_excess = if m2 > 0.0 then (m4 /. (m2 *. m2)) -. 3.0 else 0.0 in
  {
    n;
    mean;
    variance;
    std = sqrt variance;
    skewness;
    kurtosis_excess;
    min = Numerics.Float_array.min x;
    max = Numerics.Float_array.max x;
  }

let covariance x y =
  let n = Array.length x in
  assert (Array.length y = n && n >= 2);
  let mx = Numerics.Float_array.mean x and my = Numerics.Float_array.mean y in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. ((x.(i) -. mx) *. (y.(i) -. my))
  done;
  !acc /. float_of_int (n - 1)

let correlation x y =
  covariance x y
  /. sqrt (Numerics.Float_array.variance x *. Numerics.Float_array.variance y)
