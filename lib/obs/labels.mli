(** Label sets attached to instruments: sorted, deduplicated
    [(key, value)] pairs, so two label sets with the same bindings are
    structurally equal regardless of construction order. *)

type t

val empty : t

val make : (string * string) list -> t
(** Keys must match [[A-Za-z0-9_]+] and be distinct; values are free
    text.  Raises [Invalid_argument] otherwise. *)

val is_empty : t -> bool
val to_list : t -> (string * string) list
val compare : t -> t -> int

val to_string : t -> string
(** Prometheus-style rendering: [{key="value",...}], [""] when empty.
    Values are escaped (backslash, double quote, newline). *)

val escape_value : string -> string
(** The label-value escaping used by {!to_string}, exposed for the
    exposition writer. *)
