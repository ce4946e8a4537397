type tail = [ `Decreasing | `Recurrent of int | `Unknown ]

(* How [bound.(i)] follows from the lags up to [i]; fixed at creation. *)
type rule =
  | Monotone  (** r >= 0, non-increasing: r(i) bounds every later lag *)
  | Window of int  (** a [`Recurrent p] tail: the largest of the last p |r| *)
  | Suffix of float array
      (** a tabulated ACF: [s.(i) = max(0, r(i), r(i+1), ...)] *)
  | No_bound

type t = {
  acf : int -> float;
  variance : float;
  rule : rule;
  support : int;  (** r(i) = 0 exactly for every i > support *)
  (* All grown on demand, together, through index [filled]. *)
  mutable p : float array;  (** p.(m) = sum of r(i) for i in 1..m *)
  mutable q : float array;  (** q.(m) = sum of i r(i) for i in 1..m *)
  mutable r : float array;  (** r.(m) = r(m); r.(0) = 1 *)
  mutable bound : float array;
      (** bound.(m) >= r(i) for every i > m, and >= 0; nan if none *)
  mutable filled : int;  (** largest m with valid entries *)
}

let monotone_ceiling = 65_536

let set_bound t i =
  t.bound.(i) <-
    (match t.rule with
    | No_bound -> Float.nan
    | _ when i >= t.support -> 0.0
    | Monotone ->
        let r = t.r.(i) in
        if i >= monotone_ceiling || Float.is_nan r then Float.nan
        else if r > 0.0 then r
        else 0.0
    | Window p ->
        let widest = ref 0.0 in
        for j = Stdlib.max 0 (i - p + 1) to i do
          let a = Float.abs t.r.(j) in
          if a > !widest || Float.is_nan a then widest := a
        done;
        !widest
    | Suffix s -> s.(i + 1))

let make ~rule ~support ~acf ~variance =
  assert (variance > 0.0);
  let capacity = 256 in
  let t =
    {
      acf;
      variance;
      rule;
      support;
      p = Array.make (capacity + 1) 0.0;
      q = Array.make (capacity + 1) 0.0;
      r = Array.make (capacity + 1) 0.0;
      bound = Array.make (capacity + 1) 0.0;
      filled = 0;
    }
  in
  t.r.(0) <- 1.0;
  set_bound t 0;
  t

let create ~acf ~variance ~tail =
  let rule =
    match tail with
    | `Decreasing -> Monotone
    | `Recurrent p ->
        if p < 1 then invalid_arg "Variance_growth.create: `Recurrent p needs p >= 1";
        Window p
    | `Unknown -> No_bound
  in
  make ~rule ~support:max_int ~acf ~variance

let variance t = t.variance

let ensure t m =
  if m > t.filled then begin
    if m >= Array.length t.p then begin
      let capacity = Numerics.Fft.next_pow2 (m + 1) in
      let grow a =
        let b = Array.make capacity 0.0 in
        Array.blit a 0 b 0 (t.filled + 1);
        b
      in
      t.p <- grow t.p;
      t.q <- grow t.q;
      t.r <- grow t.r;
      t.bound <- grow t.bound
    end;
    for i = t.filled + 1 to m do
      let r = t.acf i in
      t.p.(i) <- t.p.(i - 1) +. r;
      t.q.(i) <- t.q.(i - 1) +. (float_of_int i *. r);
      t.r.(i) <- r;
      set_bound t i
    done;
    t.filled <- m
  end

let prefix_r t = t.p
let prefix_ir t = t.q
let tail_bound t = t.bound

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
  (* Float.max propagates a nan, which leaves those lags unbounded. *)
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 1 do
    suffix.(i) <- Float.max acf.(i) suffix.(i + 1)
  done;
  make ~rule:(Suffix suffix) ~support:(n - 1) ~variance ~acf:(fun k ->
      if k < n then acf.(k) else 0.0)

(* Zeros past [at] keep every rule's bound valid: they are non-negative
   and non-increasing after a non-negative lag, no larger in modulus
   than any window, and no larger than a floored suffix maximum.  They
   also make the bound 0 from lag [at] on, whatever the rule, except
   that a table with no bound keeps none. *)
let truncated t ~at =
  assert (at >= 0);
  make ~rule:t.rule ~support:(Stdlib.min at t.support) ~variance:t.variance
    ~acf:(fun k -> if k <= at then t.acf k else 0.0)
