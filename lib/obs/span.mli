(** Nested span tracing.

    [with_ ~name fn] times [fn ()] (monotonic for the duration, wall
    clock for the timestamp), maintains a per-domain parent/child
    stack, feeds the duration into the registry histogram
    [span.<name>.us] (0–1 s range in microseconds, 60 bins), and — when
    a trace sink is installed — emits one completion event per span
    carrying its id, parent id, nesting depth, durations, and the
    {!Trace} id active when the span was entered (so every span of one
    served request shares a [trace] field in the JSONL sink).

    With the default [Null] trace sink the cost is two clock reads and
    one histogram update per span. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Exceptions propagate; the span is closed (with [ok=false]) first. *)

val set_trace_sink : Sink.t -> unit
(** Install the destination for span-completion events (default
    [Null]).  Shared by all domains. *)

val current_trace_sink : unit -> Sink.t

val set_ring_bridge : (string -> bool -> unit) option -> unit
(** Install (or remove, with [None]) the runtime-events ring bridge:
    [f name true] fires on every span enter, [f name false] on every
    exit, from the span's own domain.  Installed by
    [Obs.Events.start ~bridge:true]; with [None] (the default) the
    cost is one atomic read per transition. *)

(** {1 Sampling}

    Thins {e trace emission} so [--trace] stays usable on
    million-request replays and under the serving daemon.  Registry
    histograms are unaffected — every span is still timed and
    recorded; sampling only decides which completions reach the trace
    sink.  Dropped completions tick [obs.span.sampled_out]. *)

type sampling =
  | Always
  | One_in of int
      (** emit the 1st, (n+1)th, (2n+1)th … completion of each span
          name, counted per domain *)

val set_sampling : sampling -> unit
(** Set the process-wide policy.  Raises [Invalid_argument] on
    [One_in n < 1]. *)

val reset_sampling : unit -> unit
(** Back to emit-everything (the default). *)

val current_depth : unit -> int
(** Number of open spans on the calling domain's stack. *)

val current_name : unit -> string option
(** Name of the innermost open span, if any. *)
