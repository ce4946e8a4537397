type t = {
  acf : int -> float;
  variance : float;
  (* prefix.(m) = (sum_(i=1..m) r(i), sum_(i=1..m) i * r(i)); grown on
     demand. *)
  mutable p : float array;  (** p.(m) = sum of r(i) for i in 1..m *)
  mutable q : float array;  (** q.(m) = sum of i r(i) for i in 1..m *)
  mutable filled : int;  (** largest m with valid entries *)
}

let create ~acf ~variance =
  assert (variance > 0.0);
  let capacity = 256 in
  {
    acf;
    variance;
    p = Array.make (capacity + 1) 0.0;
    q = Array.make (capacity + 1) 0.0;
    filled = 0;
  }

let variance t = t.variance

let ensure t m =
  if m > t.filled then begin
    if m >= Array.length t.p then begin
      let capacity = Numerics.Fft.next_pow2 (m + 1) in
      let p = Array.make capacity 0.0 and q = Array.make capacity 0.0 in
      Array.blit t.p 0 p 0 (t.filled + 1);
      Array.blit t.q 0 q 0 (t.filled + 1);
      t.p <- p;
      t.q <- q
    end;
    for i = t.filled + 1 to m do
      let r = t.acf i in
      t.p.(i) <- t.p.(i - 1) +. r;
      t.q.(i) <- t.q.(i - 1) +. (float_of_int i *. r)
    done;
    t.filled <- m
  end

let prefix_r t = t.p
let prefix_ir t = t.q

let v t m =
  assert (m >= 1);
  (* sum_(i=1..m) (m - i) r(i) = m * P(m-1) - Q(m-1); the i = m term
     vanishes. *)
  ensure t (m - 1);
  let mf = float_of_int m in
  let weighted = (mf *. t.p.(m - 1)) -. t.q.(m - 1) in
  t.variance *. (mf +. (2.0 *. weighted))

let of_acf_array ~acf ~variance =
  let n = Array.length acf in
  create ~variance ~acf:(fun k -> if k < n then acf.(k) else 0.0)

let truncated t ~at =
  assert (at >= 0);
  create ~variance:t.variance ~acf:(fun k -> if k <= at then t.acf k else 0.0)
