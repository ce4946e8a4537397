(** Fig. 6: efficacy of Markov models over the practical buffer range
    (N = 30, c = 538).  (a) Z^0.975 against its DAR(1), DAR(2), DAR(3)
    fits and against L: even DAR(1) out-predicts the exact-LRD L, and
    DAR(p) converges to Z as p grows.  (b) Same for Z^0.7. *)

val figure_a : unit -> Common.figure
val run : unit -> unit
