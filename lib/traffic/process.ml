type generator = unit -> float
type tail = [ `Decreasing | `Recurrent of int | `Unknown ]

type t = {
  name : string;
  mean : float;
  variance : float;
  acf : int -> float;
  hurst : float option;
  tail : tail;
  spawn : Numerics.Rng.t -> generator;
}

let generate t rng n =
  assert (n >= 0);
  let next = t.spawn rng in
  Array.init n (fun _ -> next ())

let acf_array t ~max_lag =
  assert (max_lag >= 0);
  Array.init (max_lag + 1) t.acf

let scale t c =
  {
    t with
    name = Printf.sprintf "%g*%s" c t.name;
    mean = c *. t.mean;
    variance = c *. c *. t.variance;
    spawn =
      (fun rng ->
        let next = t.spawn rng in
        fun () -> c *. next ());
  }

let superpose ?name components =
  assert (components <> []);
  let mean = List.fold_left (fun acc c -> acc +. c.mean) 0.0 components in
  let variance =
    List.fold_left (fun acc c -> acc +. c.variance) 0.0 components
  in
  assert (variance > 0.0);
  let name =
    match name with
    | Some n -> n
    | None -> String.concat "+" (List.map (fun c -> c.name) components)
  in
  let acf k =
    if k = 0 then 1.0
    else
      List.fold_left
        (fun acc c -> acc +. (c.variance *. c.acf k))
        0.0 components
      /. variance
  in
  let hurst =
    List.fold_left
      (fun acc c ->
        match (acc, c.hurst) with
        | None, h | h, None -> h
        | Some a, Some b -> Some (Stdlib.max a b))
      None components
  in
  (* A variance-weighted sum of non-negative, non-increasing ACFs is
     one too, also as computed: rounding is monotone.  Mixed
     recurrences obey no single recurrence. *)
  let tail =
    if
      List.for_all
        (fun c -> match c.tail with `Decreasing -> true | _ -> false)
        components
    then `Decreasing
    else `Unknown
  in
  let spawn rng =
    (* Give each component its own substream so adding a component
       does not change the draws of the others. *)
    let gens =
      List.mapi
        (fun i c -> c.spawn (Numerics.Rng.jump_to_substream rng i))
        components
    in
    fun () -> List.fold_left (fun acc g -> acc +. g ()) 0.0 gens
  in
  { name; mean; variance; acf; hurst; tail; spawn }

let replicate ?name t n =
  assert (n >= 1);
  let name =
    match name with Some s -> s | None -> Printf.sprintf "%dx(%s)" n t.name
  in
  let nf = float_of_int n in
  {
    name;
    mean = nf *. t.mean;
    variance = nf *. t.variance;
    acf = t.acf;
    hurst = t.hurst;
    tail = t.tail;
    spawn =
      (fun rng ->
        let gens =
          Array.init n (fun i -> t.spawn (Numerics.Rng.jump_to_substream rng i))
        in
        fun () ->
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. gens.(i) ()
          done;
          !acc);
  }
