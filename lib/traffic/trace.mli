(** Frame traces: materialised sample paths with CSV persistence, used
    by the examples to emulate working from a measured video trace. *)

type t = {
  frames : float array;  (** frame sizes, cells/frame *)
  ts : float;  (** frame duration in seconds *)
  name : string;
}

val of_process : Process.t -> ts:float -> Numerics.Rng.t -> n:int -> t

val save_csv : t -> path:string -> unit
[@@lint.allow "U1"] (* test-only: trace "csv roundtrip" *)
(** Two columns: frame index, frame size.  A comment header records
    name and frame duration. *)

val load_csv : path:string -> t
[@@lint.allow "U1"] (* test-only: trace "csv roundtrip" *)
(** Inverse of {!save_csv}.  Raises [Failure] on malformed input. *)

val mean : t -> float
val variance : t -> float

val acf : t -> max_lag:int -> float array
(** Sample autocorrelation of the trace. *)
