(* A record of floats only is stored flat, so each period's length is
   written as an unboxed double: no allocation, no write barrier. *)
type clock = { mutable remaining : float  (** time left in the current period *) }

type t = {
  dist : Onoff_dist.t;
  rng : Numerics.Rng.t;
  mutable on : bool;
  clock : clock;
}

let create dist rng =
  (* Every FBNDP stream depends on this draw order: the residual
     duration first, then the phase. *)
  let remaining = Onoff_dist.equilibrium_sample dist rng in
  let on = Numerics.Rng.bool rng in
  { dist; rng; on; clock = { remaining } }

let on_time t ~dt =
  assert (dt > 0.0);
  let clock = t.clock in
  let acc = ref 0.0 in
  let left = ref dt in
  while !left > 0.0 do
    if clock.remaining > !left then begin
      if t.on then acc := !acc +. !left;
      clock.remaining <- clock.remaining -. !left;
      left := 0.0
    end
    else begin
      if t.on then acc := !acc +. clock.remaining;
      left := !left -. clock.remaining;
      t.on <- not t.on;
      clock.remaining <- Onoff_dist.sample t.dist t.rng
    end
  done;
  !acc
