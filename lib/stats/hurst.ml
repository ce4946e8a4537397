type estimate = {
  h : float;
  r_squared : float;
  points : (float * float) array;
}

let geometric_blocks ~min_block ~max_block ~num_scales =
  assert (min_block >= 2 && max_block > min_block && num_scales >= 3);
  let sizes =
    Numerics.Float_array.logspace ~lo:(float_of_int min_block)
      ~hi:(float_of_int max_block) ~n:num_scales
    |> Array.map (fun s -> int_of_float (Float.round s))
  in
  (* Deduplicate after rounding. *)
  let unique = List.sort_uniq Int.compare (Array.to_list sizes) in
  Array.of_list unique

let fit_of_points points =
  let x = Array.map fst points and y = Array.map snd points in
  Regression.log_log ~x ~y

let rescaled_range ?(min_block = 8) ?(num_scales = 12) series =
  let n = Array.length series in
  assert (n >= 8 * min_block);
  let blocks = geometric_blocks ~min_block ~max_block:(n / 4) ~num_scales in
  let rs_of_block m =
    let num_blocks = n / m in
    let acc = ref 0.0 and used = ref 0 in
    for b = 0 to num_blocks - 1 do
      let offset = b * m in
      let mean = ref 0.0 in
      for i = 0 to m - 1 do
        mean := !mean +. series.(offset + i)
      done;
      let mean = !mean /. float_of_int m in
      (* Range of the mean-adjusted partial sums, and the block std. *)
      let partial = ref 0.0 in
      let lo = ref 0.0 and hi = ref 0.0 and ss = ref 0.0 in
      for i = 0 to m - 1 do
        let d = series.(offset + i) -. mean in
        partial := !partial +. d;
        ss := !ss +. (d *. d);
        if !partial < !lo then lo := !partial;
        if !partial > !hi then hi := !partial
      done;
      let s = sqrt (!ss /. float_of_int m) in
      if s > 0.0 then begin
        acc := !acc +. ((!hi -. !lo) /. s);
        incr used
      end
    done;
    if !used = 0 then None else Some (!acc /. float_of_int !used)
  in
  let points =
    Array.to_list blocks
    |> List.filter_map (fun m ->
           match rs_of_block m with
           | Some rs -> Some (float_of_int m, rs)
           | None -> None)
    |> Array.of_list
  in
  let fit = fit_of_points points in
  { h = fit.Regression.slope; r_squared = fit.Regression.r_squared; points }

let aggregated_variance ?(min_block = 4) ?(num_scales = 12) series =
  let n = Array.length series in
  assert (n >= 16 * min_block);
  let blocks = geometric_blocks ~min_block ~max_block:(n / 8) ~num_scales in
  let points =
    Array.map
      (fun m ->
        let agg = Numerics.Float_array.aggregate series ~block:m in
        (float_of_int m, Numerics.Float_array.variance_population agg))
      blocks
  in
  let fit = fit_of_points points in
  {
    h = 1.0 +. (fit.Regression.slope /. 2.0);
    r_squared = fit.Regression.r_squared;
    points;
  }

let periodogram ?(fraction = 0.1) series =
  assert (fraction > 0.0 && fraction <= 1.0);
  let spectrum = Numerics.Fft.periodogram series in
  let keep = Stdlib.max 8 (int_of_float (fraction *. float_of_int (Array.length spectrum))) in
  let keep = Stdlib.min keep (Array.length spectrum) in
  let points = Array.sub spectrum 0 keep in
  let fit = fit_of_points points in
  {
    h = (1.0 -. fit.Regression.slope) /. 2.0;
    r_squared = fit.Regression.r_squared;
    points;
  }
