(** Pluggable telemetry outputs.

    A sink consumes discrete events (span completions, notes) and
    free-form summary lines.  [Null] drops everything at near-zero
    cost; [Text] writes aligned human-readable lines; [Jsonl] writes
    one JSON object per line (machine-readable event log). *)

type event = {
  time : float;  (** wall-clock seconds since the epoch *)
  kind : string;  (** event class, e.g. ["span"] *)
  name : string;
  fields : (string * Json.t) list;
}

type t = Null | Text of out_channel | Jsonl of out_channel

val event :
  ?time:float -> kind:string -> name:string -> (string * Json.t) list -> event
(** [time] defaults to {!Clock.wall}[ ()]. *)

val emit : t -> event -> unit

val message : t -> string -> unit
(** A human-readable summary line: printed verbatim on [Text], wrapped
    as a ["message"] event on [Jsonl], dropped on [Null]. *)

val messagef : t -> ('a, unit, string, unit) format4 -> 'a

val set_human : t -> unit
(** Replace the process-wide sink for operational summaries (default:
    [Text stdout]).  The CLI's [--quiet] installs [Null] here. *)

val human_sink : unit -> t

val printf : ('a, unit, string, unit) format4 -> 'a
(** [Printf.printf]-shaped formatting onto the process-wide human
    sink via {!output}.  This is the sanctioned way for library code
    to produce operator-facing text: it respects [--quiet] (a [Null]
    human sink drops the output) and never touches [stdout]
    directly.  Lint rule H1 rejects [Printf.printf] and friends in
    [lib/] for exactly this reason. *)
