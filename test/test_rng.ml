open Helpers

let test_determinism () =
  let a = Numerics.Rng.create ~seed:42 in
  let b = Numerics.Rng.create ~seed:42 in
  for i = 1 to 100 do
    check_true
      (Printf.sprintf "same seed, same stream (draw %d)" i)
      (Numerics.Rng.uint64 a = Numerics.Rng.uint64 b)
  done

let test_seed_sensitivity () =
  let a = Numerics.Rng.create ~seed:1 in
  let b = Numerics.Rng.create ~seed:2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Numerics.Rng.uint64 a = Numerics.Rng.uint64 b then incr equal
  done;
  check_true "adjacent seeds give different streams" (!equal = 0)

let test_copy () =
  let a = rng () in
  ignore (Numerics.Rng.uint64 a);
  let b = Numerics.Rng.copy a in
  for _ = 1 to 50 do
    check_true "copy replays the future" (Numerics.Rng.uint64 a = Numerics.Rng.uint64 b)
  done

let test_split_independence () =
  let a = rng () in
  let b = Numerics.Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Numerics.Rng.uint64 a = Numerics.Rng.uint64 b then incr matches
  done;
  check_true "split streams do not collide" (!matches = 0)

let test_substream_reproducible () =
  let a = Numerics.Rng.create ~seed:5 in
  let s1 = Numerics.Rng.jump_to_substream a 3 in
  let s2 = Numerics.Rng.jump_to_substream a 3 in
  check_true "jump_to_substream does not advance parent"
    (Numerics.Rng.uint64 s1 = Numerics.Rng.uint64 s2);
  let s3 = Numerics.Rng.jump_to_substream a 4 in
  let s1' = Numerics.Rng.jump_to_substream a 3 in
  ignore (Numerics.Rng.uint64 s1');
  check_true "distinct substreams differ"
    (Numerics.Rng.uint64 s3 <> Numerics.Rng.uint64 s1')

let test_float_range_unit () =
  let a = rng () in
  for _ = 1 to 10_000 do
    let u = Numerics.Rng.float a in
    check_true "float in (0,1)" (u > 0.0 && u < 1.0)
  done

let test_float_moments () =
  let a = rng () in
  let n = 100_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let u = Numerics.Rng.float a in
    acc := !acc +. u;
    acc2 := !acc2 +. (u *. u)
  done;
  let mean = !acc /. float_of_int n in
  let second = !acc2 /. float_of_int n in
  check_close ~tol:0.005 "uniform mean 1/2" 0.5 mean;
  check_close ~tol:0.005 "uniform second moment 1/3" (1.0 /. 3.0) second

let test_int_bounds () =
  let a = rng () in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Numerics.Rng.int a ~bound:7 in
    check_true "int within bound" (v >= 0 && v < 7);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_true
        (Printf.sprintf "bucket %d roughly uniform (%d)" i c)
        (c > 9_000 && c < 11_000))
    counts

let test_bool_balance () =
  let a = rng () in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Numerics.Rng.bool a then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  check_close ~tol:0.01 "bool is fair" 0.5 frac

(* The first draws of every call after [create], pinned to the bit.
   Per seed: two [uint64], two [float], [int] at bounds 1000, 1000 and
   [max_int], sixteen [bool] (1 = true) and one [float_range] on
   (-3, 5), each kind from a fresh generator. *)
let first_draws =
  [
    (0, [| 5987356902031041503L; 7051070477665621255L |],
     [| 0x1.4c5d7585242c8p-2; 0x1.8769bcf70e034p-2 |],
     [| 375; 313; 1658441648493207295 |], "0000001100000000",
     -0x1.9d1453d6de9cp-2);
    (1, [| -3475142291704528229L; -4665094578477473651L |],
     [| 0x1.9f8ba0fede078p-1; 0x1.7e8482652c7fcp-1 |],
     [| 846; 491; 461864521559620936 |], "1101011100100000",
     0x1.bf1741fdbc0fp+1);
    (7, [| 1021219803524665661L; 3174977118032272916L |],
     [| 0x1.c583400555d2p-5; 0x1.607e46efd274cp-3 |],
     [| 415; 229; 3309235798308886044 |], "0010101010001000",
     -0x1.474f97ff5545cp+1);
    (1996, [| 3182049385916724945L; -8490628615883724469L |],
     [| 0x1.614748754a878p-3; 0x1.14567484acf7dp-1 |],
     [| 236; 786; 4347603263847147967 |], "0111101111110011",
     -0x1.9eb8b78ab5788p+0);
    (-5, [| 2519103389350875876L; -3804030898414190368L |],
     [| 0x1.17ad397c95ee8p-3; 0x1.966abc1ae2d3p-1 |],
     [| 969; 312; 1239599417838273041 |], "0101111000101001",
     -0x1.e852c6836a118p+0);
    (max_int, [| 5042704402088116674L; -4346585348570061276L |],
     [| 0x1.17ed23bec70bp-2; 0x1.875ba74f3120cp-1 |],
     [| 168; 585; 568915735592259854 |], "0100010010001011",
     -0x1.a04b7104e3d4p-1);
  ]

let check_int64 msg expected actual =
  if not (Int64.equal expected actual) then
    Alcotest.failf "%s: expected %Ld, got %Ld" msg expected actual

let test_pinned_first_draws () =
  List.iter
    (fun (seed, u64s, floats, ints, bools, ranged) ->
      let what kind i = Printf.sprintf "seed %d: %s #%d" seed kind i in
      let g = Numerics.Rng.create ~seed in
      Array.iteri (fun i v -> check_int64 (what "uint64" i) v (Numerics.Rng.uint64 g)) u64s;
      let g = Numerics.Rng.create ~seed in
      Array.iteri (fun i v -> check_bits (what "float" i) v (Numerics.Rng.float g)) floats;
      let g = Numerics.Rng.create ~seed in
      Array.iteri
        (fun i v ->
          let bound = if i < 2 then 1000 else max_int in
          check_int (what "int" i) v (Numerics.Rng.int g ~bound))
        ints;
      let g = Numerics.Rng.create ~seed in
      let flips = String.init 16 (fun _ -> if Numerics.Rng.bool g then '1' else '0') in
      Alcotest.(check string) (what "bool" 0) bools flips;
      let g = Numerics.Rng.create ~seed in
      check_bits (what "float_range" 0) ranged
        (Numerics.Rng.float_range g ~lo:(-3.0) ~hi:5.0))
    first_draws

let test_pinned_copy () =
  let a = Numerics.Rng.create ~seed:42 in
  for _ = 1 to 3 do ignore (Numerics.Rng.uint64 a) done;
  let b = Numerics.Rng.copy a in
  List.iter
    (fun (name, g) ->
      check_int64 (name ^ " #0") (-5513075133950446152L) (Numerics.Rng.uint64 g);
      check_int64 (name ^ " #1") (-3809169831026726285L) (Numerics.Rng.uint64 g))
    [ ("original", a); ("copy", b) ]

let test_pinned_split () =
  let parent = Numerics.Rng.create ~seed:42 in
  let child = Numerics.Rng.split parent in
  check_int64 "child #0" 5745406364259058299L (Numerics.Rng.uint64 child);
  check_int64 "child #1" (-3749950290529424113L) (Numerics.Rng.uint64 child);
  check_int64 "advanced parent #0" 5881210131331364753L (Numerics.Rng.uint64 parent);
  check_int64 "advanced parent #1" (-297100157724070516L) (Numerics.Rng.uint64 parent)

let test_pinned_substreams () =
  let parent = Numerics.Rng.create ~seed:42 in
  List.iteri
    (fun i (d0, d1) ->
      let s = Numerics.Rng.jump_to_substream parent i in
      check_int64 (Printf.sprintf "substream %d #0" i) d0 (Numerics.Rng.uint64 s);
      check_int64 (Printf.sprintf "substream %d #1" i) d1 (Numerics.Rng.uint64 s))
    [
      (2463140631116413833L, 2070458982645673143L);
      (-7799705377945811588L, 9066350847522407368L);
      (-6047607763031371495L, 8845149845248640384L);
      (4268038749179707020L, -5272416512542435099L);
      (2185410117469141371L, -7200999073661011096L);
      (3967136093268445961L, 8264646548747997847L);
    ];
  (* The parent was not advanced: its next draw is seed 42's first. *)
  check_int64 "parent after six substreams" (-3425465463722317665L)
    (Numerics.Rng.uint64 parent)

let test_float_allocation () =
  (* The state's words stay unboxed through a step; all a draw
     allocates is its boxed float result (2 words). *)
  let a = rng () in
  for _ = 1 to 1_000 do ignore (Sys.opaque_identity (Numerics.Rng.float a)) done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do ignore (Sys.opaque_identity (Numerics.Rng.float a)) done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int n in
  check_true
    (Printf.sprintf "Rng.float allocates %.2f minor words per draw (<= 2)" per_draw)
    (per_draw <= 2.0)

let test_derivation_allocation () =
  (* A derived generator's four words stay unboxed on the way: all a
     derivation allocates is the 32-byte state (6 words with its header
     and padding). *)
  let a = rng () in
  let per_call f =
    let n = 1_000 in
    let before = Gc.minor_words () in
    for i = 1 to n do ignore (Sys.opaque_identity (f i)) done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  List.iter
    (fun (name, f) ->
      let words = per_call f in
      check_true
        (Printf.sprintf "%s allocates %.2f minor words (<= 6)" name words)
        (words <= 6.0))
    [
      ("jump_to_substream", fun i -> Numerics.Rng.jump_to_substream a i);
      ("split", fun _ -> Numerics.Rng.split a);
      ("create", fun seed -> Numerics.Rng.create ~seed);
    ]

let suite =
  [
    case "determinism" test_determinism;
    case "seed sensitivity" test_seed_sensitivity;
    case "copy" test_copy;
    case "split independence" test_split_independence;
    case "substream reproducible" test_substream_reproducible;
    case "float in (0,1)" test_float_range_unit;
    case "float moments" test_float_moments;
    case "int bounds and uniformity" test_int_bounds;
    case "bool balance" test_bool_balance;
    case "pinned first draws per seed" test_pinned_first_draws;
    case "pinned copy" test_pinned_copy;
    case "pinned split" test_pinned_split;
    case "pinned substreams" test_pinned_substreams;
    case "float: no allocation beyond the result" test_float_allocation;
    case "derivations allocate only the new state" test_derivation_allocation;
    qcheck "float_range stays in range"
      QCheck2.Gen.(pair (float_range (-100.) 100.) (float_range 0.001 50.))
      (fun (lo, width) ->
        let a = rng ~seed:11 () in
        let hi = lo +. width in
        let v = Numerics.Rng.float_range a ~lo ~hi in
        v > lo && v < hi);
    qcheck "int bound respected" QCheck2.Gen.(int_range 1 1_000_000)
      (fun bound ->
        let a = rng ~seed:13 () in
        let v = Numerics.Rng.int a ~bound in
        v >= 0 && v < bound);
  ]
