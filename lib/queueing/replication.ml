type 'a run = Numerics.Rng.t -> 'a

let runs ~seed ~reps f =
  assert (reps >= 1);
  let master = Numerics.Rng.create ~seed in
  Array.init reps (fun i -> f (Numerics.Rng.jump_to_substream master i))

let curve_ci ~seed ~reps f =
  let samples = runs ~seed ~reps f in
  let width = Array.length samples.(0) in
  Array.iter (fun s -> assert (Array.length s = width)) samples;
  Array.init width (fun j ->
      Stats.Ci.mean_ci (Array.map (fun s -> s.(j)) samples))
