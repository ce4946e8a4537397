(** A minimal JSON tree, encoder and parser — just enough for the
    telemetry sinks and exporters, with no external dependencies.

    Encoding notes: non-finite floats become [null] (JSON has no
    literal for them); a finite float prints as [%.12g] when that reads
    back through [float_of_string] as the same float, else as [%.17g].
    That is not always the shortest form that reads back: [1. /. 3.]
    prints [0.33333333333333331], where [0.3333333333333333] would do.
    Journal and snapshot bytes depend on this rule. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> t option
(** Parses one complete JSON value (surrounding whitespace allowed);
    [None] on malformed input or trailing garbage.  Numbers parse as
    [Int] when exactly integral, [Float] otherwise. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the value bound to [key]; [None] on
    missing keys and non-objects. *)
