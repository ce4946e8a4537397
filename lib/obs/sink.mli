(** Line-oriented telemetry outputs.

    A sink is [Null], which drops everything at near-zero cost, or
    [Channel oc], which writes what it is given verbatim.  Each
    producer renders its own format: {!Span} writes one JSON object
    per span, the serving pool one JSON access object per request, and
    {!printf} plain text. *)

type t = Null | Channel of out_channel

val message : t -> string -> unit
(** Write one whole line: the text and its newline in a single
    [output_string], then a flush, so lines from domains sharing a
    sink never interleave.  Dropped on [Null]. *)

val messagef : t -> ('a, unit, string, unit) format4 -> 'a

val set_human : t -> unit
(** Replace the process-wide sink for operational summaries (default:
    [Channel stdout]).  The CLI's [--quiet] installs [Null] here. *)

val human_sink : unit -> t

val printf : ('a, unit, string, unit) format4 -> 'a
(** [Printf.printf]-shaped formatting onto the process-wide human
    sink, written as is (no newline added).  This is the sanctioned
    way for library code to produce operator-facing text: it respects
    [--quiet] (a [Null] human sink drops the output) and never touches
    [stdout] directly.  Lint rule H1 rejects [Printf.printf] and
    friends in [lib/] for exactly this reason. *)
