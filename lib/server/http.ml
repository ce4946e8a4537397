type meth = GET | POST | PUT | DELETE | HEAD | OPTIONS | Other of string

let meth_of_string = function
  | "GET" -> GET
  | "POST" -> POST
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | "HEAD" -> HEAD
  | "OPTIONS" -> OPTIONS
  | s -> Other s

let meth_name = function
  | GET -> "GET"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | HEAD -> "HEAD"
  | OPTIONS -> "OPTIONS"
  | Other s -> s

let meth_equal a b = String.equal (meth_name a) (meth_name b)

type limits = { max_line : int; max_headers : int; max_body : int }

let default_limits = { max_line = 8192; max_headers = 64; max_body = 1 lsl 20 }

type version = Http_1_0 | Http_1_1

type request = {
  meth : meth;
  target : string;
  path : string;
  version : version;
  headers : (string * string) list;
  body : string;
}

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let traceparent req =
  match header req "traceparent" with
  | None -> None
  | Some v -> Obs.Trace.parse_traceparent v

let keep_alive req =
  match Option.map String.lowercase_ascii (header req "connection") with
  | Some "close" -> false
  | Some "keep-alive" -> true
  | Some _ | None -> ( match req.version with Http_1_1 -> true | Http_1_0 -> false)

(* {2 Target parsing} *)

(* The query string is left undecoded in [target]: routing reads the
   path only. *)
let path_of_target target =
  match String.index_opt target '?' with
  | None -> target
  | Some i -> String.sub target 0 i

(* {2 Request parsing} *)

type error = { status : int; reason : string }
type parse = Request of request | Eof | Error of error

let err status reason = Error { status; reason }

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] when meth <> "" && target <> "" -> (
      match version with
      | "HTTP/1.1" -> Ok (meth_of_string meth, target, Http_1_1)
      | "HTTP/1.0" -> Ok (meth_of_string meth, target, Http_1_0)
      | _ -> Stdlib.Error (505, "unsupported HTTP version"))
  | _ -> Stdlib.Error (400, "malformed request line")

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> None
  | Some i ->
      Some
        ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let rec read_headers r ~limits deadline acc count =
  if count > limits.max_headers then
    Stdlib.Error (431, "too many header fields")
  else
    match Io.read_line r ~max:limits.max_line deadline with
    | None -> raise Io.Closed
    | Some "" -> Ok (List.rev acc)
    | Some line -> (
        match parse_header_line line with
        | None -> Stdlib.Error (400, "malformed header field")
        | Some kv -> read_headers r ~limits deadline (kv :: acc) (count + 1))

let read_request ?(limits = default_limits) r deadline =
  match Io.read_line r ~max:limits.max_line deadline with
  | None -> Eof
  | exception Io.Closed -> Eof
  | exception Io.Timeout _ -> err 408 "request timed out"
  | exception Io.Line_too_long -> err 414 "request line too long"
  | Some line -> (
      match parse_request_line line with
      | Stdlib.Error (status, reason) -> err status reason
      | Ok (meth, target, version) -> (
          match read_headers r ~limits deadline [] 0 with
          | Stdlib.Error (status, reason) -> err status reason
          | exception Io.Closed -> err 400 "connection closed mid-headers"
          | exception Io.Timeout _ -> err 408 "request timed out"
          | exception Io.Line_too_long -> err 431 "header field too long"
          | Ok headers -> (
              let find name = List.assoc_opt name headers in
              match find "transfer-encoding" with
              | Some _ -> err 501 "transfer-encoding not supported"
              | None -> (
                  let length =
                    match find "content-length" with
                    | None -> Ok 0
                    | Some v -> (
                        match int_of_string_opt (String.trim v) with
                        | Some n when n >= 0 -> Ok n
                        | _ -> Stdlib.Error ())
                  in
                  match length with
                  | Stdlib.Error () -> err 400 "malformed content-length"
                  | Ok n when n > limits.max_body ->
                      err 413 "request body too large"
                  | Ok n -> (
                      match Io.read_exact r n deadline with
                      | exception Io.Closed ->
                          err 400 "connection closed mid-body"
                      | exception Io.Timeout _ -> err 408 "request timed out"
                      | body ->
                          Request
                            {
                              meth;
                              target;
                              path = path_of_target target;
                              version;
                              headers;
                              body;
                            })))))

(* {2 Responses} *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  body : string;
}

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 414 -> "URI Too Long"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Unknown"

let response ?(headers = []) ~status body =
  { status; resp_headers = headers; body }

let status (r : response) = r.status

let add_header resp kv = { resp with resp_headers = kv :: resp.resp_headers }

let text ?(status = 200) body =
  response ~status ~headers:[ ("content-type", "text/plain; charset=utf-8") ]
    body

let json ?(status = 200) doc =
  response ~status
    ~headers:[ ("content-type", "application/json") ]
    (Obs.Json.to_string doc ^ "\n")

let json_error ~status reason =
  json ~status (Obs.Json.Obj [ ("error", Obs.Json.String reason) ])

let to_string ~keep_alive:ka resp =
  let b = Buffer.create (256 + String.length resp.body) in
  Buffer.add_string b "HTTP/1.1 ";
  Buffer.add_string b (string_of_int resp.status);
  Buffer.add_char b ' ';
  Buffer.add_string b (reason_phrase resp.status);
  Buffer.add_string b "\r\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b "\r\n")
    resp.resp_headers;
  Buffer.add_string b "content-length: ";
  Buffer.add_string b (string_of_int (String.length resp.body));
  Buffer.add_string b "\r\n";
  Buffer.add_string b
    (if ka then "connection: keep-alive\r\n" else "connection: close\r\n");
  Buffer.add_string b "\r\n";
  Buffer.add_string b resp.body;
  Buffer.contents b

let write fd ~keep_alive resp = Io.write_string fd (to_string ~keep_alive resp)
