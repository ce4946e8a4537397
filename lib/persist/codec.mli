(** JSON wire format for journal records and snapshot state.

    Encoding is deterministic: equal values produce equal bytes
    (an Obs.Json float is [%.12g] when that reads back as the same
    float, else [%.17g]),
    which is what makes snapshot/replay byte-determinism testable. *)

val encode_op : Cac.Engine.op -> string
(** One journal record payload (a single-line JSON object). *)

val decode_op : string -> (Cac.Engine.op, string) result
(** Inverse of {!encode_op}; [Error] names the missing or mistyped
    field. *)

val json_of_state : Cac.Engine.state -> Obs.Json.t
(** The snapshot body ([links]/[conns]/[breakers]/[next_conn]);
    {!Snapshot} wraps it with schema and coverage metadata. *)

val state_of_json : Obs.Json.t -> (Cac.Engine.state, string) result
