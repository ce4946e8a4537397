(** Nested span tracing: the trace tree.

    [with_ ~name fn] times [fn ()] (monotonic for the duration, wall
    clock for the timestamp), maintains a per-domain parent/child
    stack, and — when a trace sink is installed — writes one JSON line
    per completed span:
    [{"ts", "kind": "span", "name", "id", "parent", "depth", "trace",
    "dur_us", "wall_dur_s", "ok"}], in that key order.  [ts] is the
    wall clock at entry, [parent] the enclosing span's id, and [trace]
    the {!Trace} id active when the span was entered, so every span of
    one served request shares it.

    Spans write no registry series: a duration that needs a time
    series has its own histogram where it is measured
    ([srv.http.latency_us{route}] for served requests,
    [cac.sweep.task_us{worker}] for sweep tasks).  With the default
    [Null] trace sink the cost is two clock reads, the span id and the
    stack bookkeeping. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Exceptions propagate; the span is closed (with [ok=false]) first. *)

val set_trace_sink : Sink.t -> unit
(** Install the destination for span-completion lines (default
    [Null]).  Shared by all domains. *)

(** {1 Sampling}

    Thins {e trace emission} so [--trace] stays usable on
    million-request replays and under the serving daemon: sampling
    decides which completions reach the trace sink.  Dropped
    completions tick [obs.span.sampled_out]. *)

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
[@@lint.allow "U1"] (* observed by obs "span: nesting depth and names" *)
(** Number of open spans on the calling domain's stack. *)

val current_name : unit -> string option
[@@lint.allow "U1"] (* observed by obs "span: nesting depth and names" *)
(** Name of the innermost open span, if any. *)
