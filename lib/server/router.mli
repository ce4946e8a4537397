(** Method + path request routing.

    Routes are exact-path matches; dispatching an unknown path answers
    [404], a known path with the wrong method answers [405] with an
    [Allow] header.  {!resolve} also returns the {e route label} used
    for per-route telemetry: the matched path for known routes, the
    single {!unmatched_label} bucket otherwise, so hostile paths
    cannot explode metric label cardinality. *)

type handler = Http.request -> Http.response
type route
type t

val route : Http.meth -> string -> handler -> route
(** Raises [Invalid_argument] unless the path starts with ['/']. *)

val create : route list -> t
(** Raises [Invalid_argument] on duplicate (method, path) pairs. *)

val routes : t -> (Http.meth * string) list
[@@lint.allow "U1"]
(* observed by server "router: /profile, /breakers are 404" *)

val unmatched_label : string
(** ["unmatched"] — the telemetry bucket for 404s. *)

val resolve : t -> Http.request -> string * handler
(** [(route_label, handler)] for the request, without running the
    handler: the route's own, or one answering [404] or [405]. *)

val dispatch : t -> Http.request -> string * Http.response
(** [(route_label, response)]: {!resolve}, then the handler. *)

val internal_error : exn -> Http.response
(** The answer to a handler that raised: a JSON [500], counted in
    [srv.http.handler_errors].  The fallback of every handler boundary
    ({!Pool}'s dispatch, {!Cac_api}'s per-route guard), so a raise is
    counted once, by whichever boundary catches it. *)
