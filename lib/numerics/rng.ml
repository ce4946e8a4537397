(* The xoshiro256++ state is four 64-bit words s0..s3, kept at byte
   offsets 0, 8, 16 and 24 of one 32-byte buffer.  Reading and writing
   them through the unchecked native-endian primitives lets the
   compiler keep a step's words unboxed in registers, so a draw
   allocates only the value it returns.  The accessors skip the bounds
   check, which is safe because [t] is abstract and [of_words] and
   [copy] are the only ways to make one: every [t] is exactly 32 bytes
   long. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 s2;
  set64u t 24 s3;
  t

(* SplitMix64 is used only to expand a small seed into full 256-bit
   state; it guarantees that nearby integer seeds yield unrelated
   Xoshiro states.  Its k-th output from state [x] is the finaliser
   applied to [x + k * gamma], written out here rather than stepped
   through a ref, so a derivation keeps its words unboxed and
   allocates only the 32-byte state it returns. *)
let splitmix_gamma = 0x9E3779B97F4A7C15L

let[@inline] splitmix x k =
  let open Int64 in
  let z = add x (mul (of_int k) splitmix_gamma) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The first four SplitMix64 outputs from [x], in order, as a fresh
   state. *)
let[@inline] of_splitmix x =
  of_words (splitmix x 1) (splitmix x 2) (splitmix x 3) (splitmix x 4)

let create ~seed = of_splitmix (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step: the output, and the state advanced in place.
   Inlined into every draw below, so only callers outside this module
   get the output boxed. *)
let[@inline] uint64 t =
  let open Int64 in
  let s0 = get64u t 0 and s1 = get64u t 8 and s2 = get64u t 16 and s3 = get64u t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 (logxor s2 tmp);
  set64u t 24 (rotl s3 45);
  result

let split t = of_splitmix (uint64 t)

let jump_to_substream t i =
  (* Mix the substream index into a snapshot of the state through
     SplitMix64 so the parent generator is left untouched: each word
     is the first output from the parent's word xor the one before. *)
  let open Int64 in
  let s0 = splitmix (logxor (get64u t 0) (mul (of_int (i + 1)) 0xD1342543DE82EF95L)) 1 in
  let s1 = splitmix (logxor (get64u t 8) s0) 1 in
  let s2 = splitmix (logxor (get64u t 16) s1) 1 in
  let s3 = splitmix (logxor (get64u t 24) s2) 1 in
  of_words s0 s1 s2 s3

(* 2^-53: the spacing of doubles in [1,2); used to map 53 random bits
   onto (0,1). *)
let two_pow_minus53 = 1.1102230246251565e-16

let[@inline] float t =
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  let u = Int64.to_float bits *. two_pow_minus53 in
  if u <= 0. then two_pow_minus53 else u

let float_range t ~lo ~hi =
  assert (hi > lo);
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  assert (bound > 0);
  (* Rejection sampling on the high bits avoids modulo bias. *)
  let rec loop t bound =
    let r = Int64.to_int (Int64.shift_right_logical (uint64 t) 2) in
    let v = r mod bound in
    if r - v > (max_int - bound) + 1 then loop t bound else v
  in
  loop t bound

let bool t = uint64 t < 0L
