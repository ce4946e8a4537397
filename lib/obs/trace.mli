(** W3C trace-context propagation.

    A trace context is a (trace id, span id) pair carried in the
    [traceparent] HTTP header.  The current context is Domain-local
    (set around request dispatch by [Srv.Pool]), so spans and
    histogram exemplars recorded anywhere on the same domain pick it
    up without explicit plumbing. *)

type t = {
  trace_id : string;  (** 32 lowercase hex chars, never all-zero. *)
  span_id : string;  (** 16 lowercase hex chars, never all-zero. *)
}

val generate : unit -> t
(** Fresh random context from a per-domain {!Numerics.Rng} stream
    seeded with the domain id and the monotonic clock. *)

val parse_traceparent : string -> t option
(** Parse a [traceparent] header value
    ([00-<32 hex>-<16 hex>-<2 hex>]).  Returns [None] on malformed
    input, all-zero ids, or version [ff].  Unknown versions with
    trailing fields are accepted per the W3C spec. *)

val to_traceparent : t -> string
(** Render as a version-00 header value with the sampled flag set. *)

val current : unit -> t option
(** The calling domain's current context, if any. *)

val current_trace_id : unit -> string option
(** [current]'s trace id alone — the exemplar/span hot path. *)

val with_context : t -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] installed on the calling
    domain, restoring the previous context afterwards (also on
    exceptions). *)
