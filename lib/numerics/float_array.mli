(** Small utilities over [float array] shared across the project. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val mean : float array -> float
(** Arithmetic mean; the array must be non-empty. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]); needs [n >= 2]. *)

val variance_population : float array -> float
(** Population variance (divides by [n]); needs [n >= 1]. *)

val std : float array -> float
(** Square root of {!variance}. *)

val min : float array -> float
val max : float array -> float

val dot : float array -> float array -> float
[@@lint.allow "U1"] (* test-only: float_array "min max dot" *)
(** Inner product of equal-length arrays. *)

val prefix_sums : float array -> float array
[@@lint.allow "U1"] (* test-only: float_array "prefix sums" *)
(** [prefix_sums x] has length [n + 1] with element [i] holding the sum
    of [x.(0) .. x.(i-1)]. *)

val linspace : lo:float -> hi:float -> n:int -> float array
[@@lint.allow "U1"] (* test-only: float_array "linspace" *)
(** [n >= 2] evenly spaced points from [lo] to [hi] inclusive. *)

val logspace : lo:float -> hi:float -> n:int -> float array
(** [n >= 2] points logarithmically spaced from [lo] to [hi] inclusive;
    requires [0 < lo < hi]. *)

val quantile : float array -> float -> float
(** [quantile x p] for [p] in [0, 1]; linear interpolation between
    order statistics.  Sorts a copy: O(n log n). *)

val map2 : (float -> float -> float) -> float array -> float array -> float array
[@@lint.allow "U1"] (* test-only: misc "map2" *)

val normalize_in_place : float array -> unit
(** Scales a non-negative array so its entries sum to 1 (no-op when the
    sum is zero). *)

val aggregate : float array -> block:int -> float array
(** [aggregate x ~block] averages consecutive non-overlapping blocks of
    [block] elements (the incomplete tail block is dropped); this is the
    m-aggregated series used by variance-time Hurst analysis. *)
