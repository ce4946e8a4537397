(** HTTP/1.1 request parsing and response serialization.

    Deliberately small: request line + header fields + an optional
    [Content-Length] body, with hard caps on line length, header count
    and body size ({!limits}) so a hostile peer cannot balloon a
    worker's memory.  Chunked transfer encoding is rejected with
    [501].  Keep-alive follows HTTP/1.1 defaults (persistent unless
    [Connection: close]; HTTP/1.0 is one-shot unless
    [Connection: keep-alive]). *)

type meth = GET | POST | PUT | DELETE | HEAD | OPTIONS | Other of string

val meth_name : meth -> string
val meth_equal : meth -> meth -> bool

type limits = {
  max_line : int;
      (** request line / single header line: bytes before the LF, a
          CR among them *)
  max_headers : int;  (** header field count *)
  max_body : int;  (** [Content-Length] bound, bytes *)
}

val default_limits : limits
(** 8 KiB lines, 64 headers, 1 MiB body. *)

type version = Http_1_0 | Http_1_1

type request = {
  meth : meth;
  target : string;  (** raw request target, e.g. ["/v1/decide?n=3"] *)
  path : string;  (** target before ['?']; the query is not decoded *)
  version : version;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val traceparent : request -> Obs.Trace.t option
(** The request's W3C [traceparent] context, if present and
    well-formed. *)

val keep_alive : request -> bool

type error = { status : int; reason : string }

type parse =
  | Request of request
  | Eof  (** clean close before the first request byte *)
  | Error of error
      (** malformed/oversized/timed-out input, with the status to
          answer before closing: 400, 408, 413, 414, 431, 501 or 505 *)

val read_request : ?limits:limits -> Io.reader -> Io.deadline -> parse
(** Read one request off the connection.  Never raises on peer
    misbehaviour — bad input comes back as [Error] so the caller can
    answer it. *)

(** {1 Responses} *)

type response

val response : ?headers:(string * string) list -> status:int -> string -> response
val text : ?status:int -> string -> response
val json : ?status:int -> Obs.Json.t -> response

val json_error : status:int -> string -> response
(** [{"error": reason}] with the given status. *)

val status : response -> int

val add_header : response -> string * string -> response
(** Prepend one header (e.g. the echoed [traceparent]). *)

val to_string : keep_alive:bool -> response -> string
(** Serialize: status line, caller headers, [content-length],
    [connection], blank line, body. *)

val write : Unix.file_descr -> keep_alive:bool -> response -> unit
