(** Fig. 1 (schematic): how the knobs [a] (of Z^a) and [v] (of V^v)
    reshape the autocorrelation function — [a] moves the short-lag
    geometric part, [v] moves the weight of the power-law tail. *)

val figure_z : unit -> Common.figure
val run : unit -> unit
