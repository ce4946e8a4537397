(** Deterministic pseudo-random number generation.

    The generator is Xoshiro256++ seeded through SplitMix64, giving a
    period of [2^256 - 1] and excellent statistical quality for
    simulation work.  All simulation code in this project draws its
    randomness through this module so that every experiment is exactly
    reproducible from a seed.

    {b State layout.}  The 256-bit state is one 32-byte buffer holding
    the four 64-bit words of xoshiro256++, read and written as unboxed
    [int64]s.  A draw therefore allocates only the value it returns:
    one boxed float (2 words) for {!float} and {!float_range}, one
    boxed [int64] (3 words) for {!uint64}, nothing for {!int} and
    {!bool}.  In an ON/OFF source every period costs one {!float}, so
    this is what keeps source generation cheap.  {!create}, {!split}
    and {!jump_to_substream} derive the four words of a new state
    without intermediate boxes, so each allocates only that state
    (6 words). *)

type t
(** Mutable generator state, always exactly 32 bytes. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator.  Equal seeds produce equal
    streams. *)

val copy : t -> t
[@@lint.allow "U1"] (* test-only: rng "copy" *)
(** [copy t] is an independent generator whose future output equals the
    future output of [t] at the time of the copy. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams
    produced by repeated [split] are statistically independent; use one
    split generator per replication or per source so that changing one
    component's consumption does not perturb the others. *)

val uint64 : t -> int64
(** [uint64 t] is the next raw 64-bit output.  Allocates its boxed
    result. *)

val float : t -> float
(** [float t] is uniform on the open interval (0, 1).  Neither endpoint
    is ever returned, so it is safe to take logarithms.  Allocates its
    boxed result and nothing else. *)

val float_range : t -> lo:float -> hi:float -> float
[@@lint.allow "U1"] (* test-only: rng "float_range stays in range" *)
(** [float_range t ~lo ~hi] is uniform on (lo, hi). *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform on [0, bound).  [bound] must be
    positive. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val jump_to_substream : t -> int -> t
(** [jump_to_substream t i] is a generator for substream [i] derived
    deterministically from [t]'s current state without advancing [t].
    Distinct [i] give independent streams. *)
