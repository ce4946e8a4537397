open Helpers
open Srv

(* {2 Plumbing}

   Parser tests drive [Http.read_request] through a Unix-domain
   socketpair — real fds, no network.  [Pool.serve_connection] closes
   its own end, so double-closes here are absorbed. *)

let check_str msg expected actual = Alcotest.(check string) msg expected actual

let with_socketpair f =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      (try Unix.close server with Unix.Unix_error _ -> ()))
    (fun () -> f client server)

(* Feed [bytes] to the parser and return the result; the client end is
   closed after writing so truncated inputs terminate with EOF. *)
let parse ?limits bytes =
  with_socketpair (fun client server ->
      Io.write_string client bytes;
      Unix.close client;
      Http.read_request ?limits (Io.reader server) (Io.deadline_in 5.0))

let parse_error_status ?limits bytes =
  match parse ?limits bytes with
  | Http.Error { status; _ } -> status
  | Http.Request _ -> Alcotest.failf "parsed %S as a request" bytes
  | Http.Eof -> Alcotest.failf "parsed %S as EOF" bytes

(* Minimal HTTP client: read one response off [reader]. *)
let read_response reader =
  let dl = Io.deadline_in 10.0 in
  let status =
    match Io.read_line reader ~max:8192 dl with
    | None -> Alcotest.fail "eof before status line"
    | Some line -> (
        match String.split_on_char ' ' line with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "bad status line %S" line)
  in
  let rec headers acc =
    match Io.read_line reader ~max:8192 dl with
    | None -> Alcotest.fail "eof in headers"
    | Some "" -> List.rev acc
    | Some line -> (
        match String.index_opt line ':' with
        | None -> Alcotest.failf "bad header line %S" line
        | Some i ->
            headers
              (( String.lowercase_ascii (String.sub line 0 i),
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)) )
              :: acc))
  in
  let hs = headers [] in
  let len =
    match List.assoc_opt "content-length" hs with
    | Some v -> int_of_string v
    | None -> 0
  in
  (status, hs, Io.read_exact reader len dl)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spin ?(tries = 2000) cond msg =
  let rec go n =
    if cond () then ()
    else if n <= 0 then Alcotest.fail msg
    else begin
      Unix.sleepf 0.005;
      go (n - 1)
    end
  in
  go tries

(* {2 Parser goldens} *)

let test_parse_get () =
  match
    parse
      "GET /healthz?q=long%20range&n=3 HTTP/1.1\r\n\
       Host: cts\r\n\
       X-Trace: on \r\n\
       \r\n"
  with
  | Http.Request req ->
      check_true "method" (Http.meth_equal req.Http.meth Http.GET);
      check_str "path" "/healthz" req.Http.path;
      check_str "raw target kept" "/healthz?q=long%20range&n=3" req.Http.target;
      check_str "header lowercased" "cts"
        (Option.value ~default:"?" (Http.header req "HOST"));
      check_str "header value trimmed" "on"
        (Option.value ~default:"?" (Http.header req "x-trace"));
      check_str "no body" "" req.Http.body;
      check_true "HTTP/1.1 defaults to keep-alive" (Http.keep_alive req)
  | _ -> Alcotest.fail "valid GET did not parse"

let test_parse_post_body () =
  match
    parse "POST /v1/decide HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
  with
  | Http.Request req ->
      check_true "method" (Http.meth_equal req.Http.meth Http.POST);
      check_str "body" "hello" req.Http.body
  | _ -> Alcotest.fail "POST with body did not parse"

let test_parse_eof () =
  match parse "" with
  | Http.Eof -> ()
  | _ -> Alcotest.fail "clean close should be Eof"

let test_parse_malformed () =
  check_int "garbage request line" 400 (parse_error_status "GARBAGE\r\n\r\n");
  check_int "unsupported version" 505
    (parse_error_status "GET /x HTTP/2.0\r\n\r\n");
  check_int "bad content-length" 400
    (parse_error_status "GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
  check_int "negative content-length" 400
    (parse_error_status "GET /x HTTP/1.1\r\ncontent-length: -4\r\n\r\n");
  check_int "chunked rejected" 501
    (parse_error_status
       "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")

let test_parse_truncated () =
  check_int "cut mid-headers" 400
    (parse_error_status "GET /x HTTP/1.1\r\nHost: cts");
  check_int "cut mid-body" 400
    (parse_error_status "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nhi");
  (* EOF at every byte maps to a parse outcome; nothing raises.  Mid
     request line is a quiet [Eof]; past it, a 400 that names where the
     peer left. *)
  let request_line = "POST /v1/decide HTTP/1.1\r\n" in
  let head = request_line ^ "Host: cts\r\ncontent-length: 5\r\n\r\n" in
  let full = head ^ "hello" in
  for p = 0 to String.length full do
    let expected =
      if p < String.length request_line then "eof"
      else if p < String.length head then "400 connection closed mid-headers"
      else if p < String.length full then "400 connection closed mid-body"
      else "request"
    in
    let got =
      match parse (String.sub full 0 p) with
      | Http.Eof -> "eof"
      | Http.Error { status; reason } -> Printf.sprintf "%d %s" status reason
      | Http.Request _ -> "request"
    in
    check_str (Printf.sprintf "EOF after %d of %d bytes" p (String.length full))
      expected got
  done

let test_parse_oversized () =
  let limits = { Http.max_line = 48; max_headers = 2; max_body = 64 } in
  let long = String.make 100 'a' in
  check_int "request line too long" 414
    (parse_error_status ~limits (Printf.sprintf "GET /%s HTTP/1.1\r\n\r\n" long));
  check_int "header line too long" 431
    (parse_error_status ~limits
       (Printf.sprintf "GET /x HTTP/1.1\r\nx: %s\r\n\r\n" long));
  (* At the limit: a line holds [max_line] bytes before its LF, a CR
     among them, and one more byte refuses it. *)
  let request_line n =
    "GET /" ^ String.make (n - String.length "GET / HTTP/1.1") 'a' ^ " HTTP/1.1"
  in
  let header_line n = "x: " ^ String.make (n - 3) 'v' in
  let accepted what bytes =
    match parse ~limits bytes with
    | Http.Request _ -> ()
    | _ -> Alcotest.failf "%s: %S refused" what bytes
  in
  accepted "CRLF request line of max_line bytes" (request_line 47 ^ "\r\n\r\n");
  accepted "LF request line of max_line bytes" (request_line 48 ^ "\n\n");
  check_int "CRLF request line of max_line + 1 bytes" 414
    (parse_error_status ~limits (request_line 48 ^ "\r\n\r\n"));
  check_int "LF request line of max_line + 1 bytes" 414
    (parse_error_status ~limits (request_line 49 ^ "\n\n"));
  accepted "CRLF header line of max_line bytes"
    ("GET /x HTTP/1.1\r\n" ^ header_line 47 ^ "\r\n\r\n");
  accepted "LF header line of max_line bytes"
    ("GET /x HTTP/1.1\n" ^ header_line 48 ^ "\n\n");
  check_int "CRLF header line of max_line + 1 bytes" 431
    (parse_error_status ~limits ("GET /x HTTP/1.1\r\n" ^ header_line 48 ^ "\r\n\r\n"));
  check_int "LF header line of max_line + 1 bytes" 431
    (parse_error_status ~limits ("GET /x HTTP/1.1\n" ^ header_line 49 ^ "\n\n"));
  check_int "too many headers" 431
    (parse_error_status ~limits
       "GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n");
  check_int "body over cap refused before reading it" 413
    (parse_error_status ~limits
       "POST /x HTTP/1.1\r\ncontent-length: 65\r\n\r\n")

let test_parse_timeout () =
  with_socketpair (fun client server ->
      Io.write_string client "GET /slow HTTP/1.1\r\nHost:";
      (* client neither finishes nor closes: the deadline must fire *)
      match Http.read_request (Io.reader server) (Io.deadline_in 0.2) with
      | Http.Error { status = 408; _ } -> ()
      | _ -> Alcotest.fail "trickling peer should time out as 408")

let test_keep_alive_semantics () =
  let ka bytes =
    match parse bytes with
    | Http.Request req -> Http.keep_alive req
    | _ -> Alcotest.failf "unparseable %S" bytes
  in
  check_true "1.0 defaults to close" (not (ka "GET /x HTTP/1.0\r\n\r\n"));
  check_true "1.0 opts into keep-alive"
    (ka "GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
  check_true "1.1 opts out with close"
    (not (ka "GET /x HTTP/1.1\r\nconnection: close\r\n\r\n"))

(* Bare-LF lines are lines, alone and mixed with CRLF ones. *)
let test_parse_bare_lf () =
  match
    parse "POST /v1/decide?x=1 HTTP/1.1\nHost: cts\r\ncontent-length: 4\n\na\r\nb"
  with
  | Http.Request req ->
      check_str "path" "/v1/decide" req.Http.path;
      check_str "CRLF header among LF ones" "cts"
        (Option.value ~default:"?" (Http.header req "host"));
      check_str "body" "a\r\nb" req.Http.body
  | _ -> Alcotest.fail "bare-LF request did not parse"

(* {2 Pipelined requests cut at arbitrary points}

   Each chunk is written only once the reader has taken the previous
   one off the socket, so the parser's reads end exactly at the cuts.
   Two pipelined requests and the EOF after them must parse the same
   whatever the cuts.  The second request parses right only if reading
   the first body took nothing past its length. *)

type wire = {
  w_meth : string;
  w_path : string;
  w_query : (string * string) list;
  w_headers : (string * string) list;  (** as sent: any case, padded values *)
  w_body : string;
  w_eol : string;  (** "\r\n" or "\n" *)
}

let wire_target w =
  match w.w_query with
  | [] -> w.w_path
  | q -> w.w_path ^ "?" ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) q)

let wire_bytes w =
  let b = Buffer.create 256 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_string b w.w_eol
  in
  line (w.w_meth ^ " " ^ wire_target w ^ " HTTP/1.1");
  List.iter (fun (k, v) -> line (k ^ ":" ^ v)) w.w_headers;
  line ("Content-Length: " ^ string_of_int (String.length w.w_body));
  line "";
  Buffer.add_string b w.w_body;
  Buffer.contents b

(* The request the parser must make of [w]. *)
let wire_matches w (req : Http.request) =
  String.equal (Http.meth_name req.Http.meth) w.w_meth
  && String.equal req.Http.target (wire_target w)
  && String.equal req.Http.path w.w_path
  && req.Http.version = Http.Http_1_1
  && req.Http.headers
     = List.map (fun (k, v) -> (String.lowercase_ascii k, String.trim v)) w.w_headers
       @ [ ("content-length", string_of_int (String.length w.w_body)) ]
  && String.equal req.Http.body w.w_body

(* Write [chunks] in turn, each once the last has been read, then
   close; return what three [read_request]s made of them. *)
let parse_chunks chunks =
  with_socketpair (fun client server ->
      let reader =
        Domain.spawn (fun () ->
            let r = Io.reader server in
            let read () = Http.read_request r (Io.deadline_in 5.0) in
            let first = read () in
            let second = read () in
            let third = read () in
            [ first; second; third ])
      in
      let rec drained tries =
        match Unix.select [ server ] [] [] 0.0 with
        | [], _, _ -> ()
        | _ ->
            (* A reader that stopped early leaves bytes behind; give up
               after a second and let the results show it. *)
            if tries > 0 then begin
              Unix.sleepf 0.0001;
              drained (tries - 1)
            end
      in
      List.iter
        (fun chunk ->
          Io.write_string client chunk;
          drained 10_000)
        chunks;
      Unix.close client;
      Domain.join reader)

let cut s cuts =
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

let pipelined_parse_ok w1 w2 results =
  match results with
  | [ Http.Request r1; Http.Request r2; Http.Eof ] ->
      wire_matches w1 r1 && wire_matches w2 r2
  | _ -> false

let gen_wire =
  let open QCheck2.Gen in
  let alnum = oneofl (List.init 62 (fun i ->
      if i < 10 then Char.chr (48 + i)
      else if i < 36 then Char.chr (55 + i)
      else Char.chr (61 + i)))
  in
  let token lo hi = string_size ~gen:alnum (int_range lo hi) in
  let* w_meth = oneofl [ "GET"; "POST"; "PUT"; "DELETE"; "HEAD"; "OPTIONS"; "PATCH" ] in
  let* segments = list_size (int_range 0 3) (token 1 8) in
  let* w_query = list_size (int_range 0 3) (pair (token 1 6) (token 0 6)) in
  let* w_headers =
    list_size (int_range 0 6)
      (pair
         (map2 (fun x t -> x ^ "-" ^ t) (oneofl [ "x"; "X" ]) (token 1 10))
         (string_size ~gen:(char_range ' ' '~') (int_range 0 24)))
  in
  let* w_body = string_size ~gen:char (int_range 0 80) in
  let+ w_eol = oneofl [ "\r\n"; "\n" ] in
  { w_meth; w_path = "/" ^ String.concat "/" segments; w_query; w_headers; w_body; w_eol }

(* Positions in (0, n), sorted and distinct, from raw draws. *)
let cut_points n raw =
  List.sort_uniq Int.compare (List.map (fun c -> 1 + (c mod (n - 1))) raw)

let print_pipelined (w1, w2, raw) =
  let stream = wire_bytes w1 ^ wire_bytes w2 in
  Printf.sprintf "%S cut at [%s]" stream
    (String.concat "; "
       (List.map string_of_int (cut_points (String.length stream) raw)))

let prop_pipelined_cuts (w1, w2, raw) =
  let stream = wire_bytes w1 ^ wire_bytes w2 in
  let whole = parse_chunks [ stream ] in
  pipelined_parse_ok w1 w2 whole
  && parse_chunks (cut stream (cut_points (String.length stream) raw)) = whole

let test_pipelined_cuts =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1996 |])
    (QCheck2.Test.make ~count:200
       ~name:"parser: pipelined requests cut at random points"
       ~print:print_pipelined
       QCheck2.Gen.(triple gen_wire gen_wire (list_size (int_range 1 4) (int_range 0 100_000)))
       prop_pipelined_cuts)

(* One fixed pair, cut once at every byte boundary. *)
let test_pipelined_every_boundary () =
  let w1 =
    {
      w_meth = "POST";
      w_path = "/v1/admit";
      w_query = [];
      w_headers = [ ("Host", " cts "); ("X-Trace", "on") ];
      w_body = "{\"link\":\"big\",\r\n\"class\":\"z0.975\"}\n";
      w_eol = "\r\n";
    }
  in
  let w2 =
    {
      w_meth = "GET";
      w_path = "/healthz";
      w_query = [ ("q", "long"); ("n", "3") ];
      w_headers = [ ("connection", "close") ];
      w_body = "";
      w_eol = "\n";
    }
  in
  let stream = wire_bytes w1 ^ wire_bytes w2 in
  let whole = parse_chunks [ stream ] in
  check_true "unsplit stream parses to both requests" (pipelined_parse_ok w1 w2 whole);
  for p = 1 to String.length stream - 1 do
    if parse_chunks (cut stream [ p ]) <> whole then
      Alcotest.failf "cut at byte %d of %d parses differently" p (String.length stream)
  done

(* {2 Response bytes} *)

let test_response_golden () =
  let resp =
    Http.add_header
      (Http.json
         (Obs.Json.Obj
            [
              ("admitted", Obs.Json.Bool true);
              ("conn", Obs.Json.Int 7);
              ("log10_bop", Obs.Json.Float (-6.25));
            ]))
      ("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
  in
  let bytes connection =
    "HTTP/1.1 200 OK\r\n\
     traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\r\n\
     content-type: application/json\r\n\
     content-length: 45\r\n\
     connection: " ^ connection ^ "\r\n\
     \r\n\
     {\"admitted\":true,\"conn\":7,\"log10_bop\":-6.25}\n"
  in
  check_str "keep-alive" (bytes "keep-alive") (Http.to_string ~keep_alive:true resp);
  check_str "close" (bytes "close") (Http.to_string ~keep_alive:false resp);
  check_str "error answer"
    "HTTP/1.1 503 Service Unavailable\r\n\
     content-type: application/json\r\n\
     content-length: 23\r\n\
     connection: close\r\n\
     \r\n\
     {\"error\":\"queue full\"}\n"
    (Http.to_string ~keep_alive:false (Http.json_error ~status:503 "queue full"))

(* {2 Router} *)

let make_router () =
  Router.create
    [
      Router.route Http.GET "/ping" (fun _ -> Http.text "pong");
      Router.route Http.POST "/echo" (fun req -> Http.text req.Http.body);
    ]

let req_for meth path =
  {
    Http.meth;
    target = path;
    path;
    version = Http.Http_1_1;
    headers = [];
    body = "";
  }

let test_router_dispatch () =
  let r = make_router () in
  let label, resp = Router.dispatch r (req_for Http.GET "/ping") in
  check_str "matched label" "/ping" label;
  check_int "matched status" 200 (Http.status resp);
  let label, resp = Router.dispatch r (req_for Http.GET "/nope") in
  check_str "404s share one label" Router.unmatched_label label;
  check_int "unknown path" 404 (Http.status resp);
  let label, resp = Router.dispatch r (req_for Http.DELETE "/ping") in
  check_str "405 keeps the path label" "/ping" label;
  check_int "wrong method" 405 (Http.status resp);
  check_true "allow header lists the supported method"
    (contains_substring
       (Http.to_string ~keep_alive:false resp)
       "allow: GET")

let test_router_rejects_duplicates () =
  match
    Router.create
      [
        Router.route Http.GET "/a" (fun _ -> Http.text "1");
        Router.route Http.GET "/a" (fun _ -> Http.text "2");
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate routes accepted"

let test_pool_config_validation () =
  let bad config =
    match Pool.create ~config (make_router ()) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid pool config accepted"
  in
  bad { Pool.default_config with domains = 0 };
  bad { Pool.default_config with queue_capacity = 0 };
  bad { Pool.default_config with read_timeout_s = Some 0.0 }

(* {2 Socketpair round-trips through the worker body} *)

let test_round_trip_keep_alive () =
  let config = { Pool.default_config with domains = 1 } in
  let pool = Pool.create ~config (make_router ()) in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client "GET /ping HTTP/1.1\r\n\r\n";
          let st, hdrs, body = read_response reader in
          check_int "first response" 200 st;
          check_str "body" "pong" body;
          check_str "keep-alive advertised" "keep-alive"
            (Option.value ~default:"?" (List.assoc_opt "connection" hdrs));
          (* second request on the same connection *)
          Io.write_string client
            "POST /echo HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
          let st, _, body = read_response reader in
          check_int "reused connection" 200 st;
          check_str "echoed body" "hello" body;
          (* 404 is a routed answer, not a connection error *)
          Io.write_string client "GET /missing HTTP/1.1\r\n\r\n";
          let st, _, _ = read_response reader in
          check_int "404 keeps the session" 404 st;
          (* connection: close ends the session *)
          Io.write_string client
            "GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n";
          let st, hdrs, _ = read_response reader in
          check_int "final response" 200 st;
          check_str "close advertised" "close"
            (Option.value ~default:"?" (List.assoc_opt "connection" hdrs));
          match Io.read_line reader ~max:64 (Io.deadline_in 5.0) with
          | None -> ()
          | Some _ -> Alcotest.fail "connection survived connection: close"));
  (* [max_conn_requests] bounds a keep-alive session: of three
     pipelined requests, the second is answered with connection: close
     and the third never is. *)
  let pool =
    Pool.create ~config:{ config with max_conn_requests = 2 } (make_router ())
  in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client
            (String.concat "" (List.init 3 (fun _ -> "GET /ping HTTP/1.1\r\n\r\n")));
          List.iter
            (fun (what, connection) ->
              let st, hdrs, _ = read_response reader in
              check_int what 200 st;
              check_str (what ^ ": connection") connection
                (Option.value ~default:"?" (List.assoc_opt "connection" hdrs)))
            [ ("first of two", "keep-alive"); ("second of two", "close") ];
          match Io.read_line reader ~max:64 (Io.deadline_in 5.0) with
          | None -> ()
          | Some _ -> Alcotest.fail "a third request was answered"))

let test_connection_answers_parse_error () =
  let pool = Pool.create ~config:{ Pool.default_config with domains = 1 }
      (make_router ())
  in
  let errors_before = Obs.Registry.counter_value "srv.http.parse_errors" in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client "NOT-HTTP\r\n\r\n";
          let st, _, body = read_response reader in
          check_int "malformed input answered" 400 st;
          check_true "json error body" (contains_substring body "error");
          (match Io.read_line reader ~max:64 (Io.deadline_in 5.0) with
          | None -> ()
          | Some _ -> Alcotest.fail "connection survived a parse error");
          check_true "parse_errors ticked"
            (Obs.Registry.counter_value "srv.http.parse_errors" > errors_before)))

let test_handler_exception_contained () =
  let router =
    Router.create
      [
        Router.route Http.GET "/boom" (fun _ -> failwith "handler bug");
        Router.route Http.GET "/ok" (fun _ -> Http.text "fine");
      ]
  in
  let pool = Pool.create ~config:{ Pool.default_config with domains = 1 } router in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client "GET /boom HTTP/1.1\r\n\r\n";
          let st, _, _ = read_response reader in
          check_int "exception degraded to 500" 500 st;
          (* the worker survived: same connection still serves *)
          Io.write_string client
            "GET /ok HTTP/1.1\r\nconnection: close\r\n\r\n";
          let st, _, body = read_response reader in
          check_int "worker survived the exception" 200 st;
          check_str "subsequent handler ran" "fine" body))

(* {2 Overload: full queue sheds with 503} *)

let test_overload_sheds_503 () =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let started = ref 0 in
  let release = ref false in
  let block_handler _req =
    Mutex.protect m (fun () ->
        incr started;
        Condition.broadcast cv;
        while not !release do
          Condition.wait cv m
        done);
    Http.text "unblocked"
  in
  let router =
    Router.create [ Router.route Http.GET "/block" block_handler ]
  in
  let config =
    {
      Pool.default_config with
      domains = 1;
      queue_capacity = 1;
      max_conn_requests = 1;
    }
  in
  let pool = Pool.create ~config router in
  let listen_fd = Pool.listen ~host:"127.0.0.1" ~port:0 () in
  let port = Pool.bound_port listen_fd in
  let server = Domain.spawn (fun () -> Pool.serve pool listen_fd) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect m (fun () ->
          release := true;
          Condition.broadcast cv);
      Pool.stop pool;
      ignore (Domain.join server);
      close_quietly listen_fd)
    (fun () ->
      spin (fun () -> Pool.accepting pool) "accept loop never came up";
      let shed_before = Obs.Registry.counter_value "srv.http.shed" in
      (* c1 occupies the single worker... *)
      let c1 = connect port in
      Io.write_string c1 "GET /block HTTP/1.1\r\n\r\n";
      spin
        (fun () -> Mutex.protect m (fun () -> !started) >= 1)
        "worker never picked up the blocking request";
      (* ...c2 fills the one queue slot... *)
      let c2 = connect port in
      Io.write_string c2 "GET /block HTTP/1.1\r\n\r\n";
      spin
        (fun () -> Pool.queue_length pool = 1)
        "second connection never queued";
      (* ...so c3 must be shed straight from the accept loop. *)
      let c3 = connect port in
      Fun.protect
        ~finally:(fun () -> List.iter close_quietly [ c1; c2; c3 ])
        (fun () ->
          let st, hdrs, body = read_response (Io.reader c3) in
          check_int "overflow sheds 503, not a hang" 503 st;
          check_str "retry-after set" "1"
            (Option.value ~default:"?" (List.assoc_opt "retry-after" hdrs));
          check_true "overload body says so"
            (contains_substring body "overloaded");
          check_true "shed counter ticked"
            (Obs.Registry.counter_value "srv.http.shed" > shed_before);
          (* unblock: both accepted requests must still be answered *)
          Mutex.protect m (fun () ->
              release := true;
              Condition.broadcast cv);
          let st, _, _ = read_response (Io.reader c1) in
          check_int "blocked request answered" 200 st;
          let st, _, _ = read_response (Io.reader c2) in
          check_int "queued request answered after drain" 200 st))

(* {2 Trace correlation and introspection} *)

let with_api ?barrier ?(links = [ ("oc3", 16140.0, 20.0) ]) f =
  let engine = Cac.Engine.create () in
  List.iter
    (fun (id, capacity, buffer_msec) ->
      let (_ : Cac.Link.t) =
        Cac.Engine.add_link_msec engine ~id ~capacity ~buffer_msec
          ~target_clr:1e-6
      in
      ())
    links;
  f (Cac_api.create ?barrier engine)

(* Run one connection's worth of raw bytes through the worker body and
   hand each response back through [read_response]. *)
let serve_bytes router ~requests =
  let pool = Pool.create ~config:{ Pool.default_config with domains = 1 } router in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          List.map
            (fun bytes ->
              Io.write_string client bytes;
              read_response reader)
            requests))

(* A raise inside a route handler is caught by Cac_api's per-route
   guard, before the pool's boundary sees it; both boundaries answer
   through the same counted fallback, so the 500 is counted once. *)
let test_route_handler_raise_counted () =
  with_api ~barrier:(fun () -> failwith "barrier bug") @@ fun api ->
  let body = {|{"link": "oc3", "class": "dar1"}|} in
  let before = Obs.Registry.counter_value "srv.http.handler_errors" in
  let statuses =
    List.map
      (fun (st, _, _) -> st)
      (serve_bytes (Cac_api.router api)
         ~requests:
           [
             Printf.sprintf
               "POST /v1/admit HTTP/1.1\r\nconnection: close\r\n\
                content-length: %d\r\n\r\n%s"
               (String.length body) body;
           ])
  in
  check_true "one 500" (statuses = [ 500 ]);
  check_int "srv.http.handler_errors up by exactly 1" (before + 1)
    (Obs.Registry.counter_value "srv.http.handler_errors")

let response_body resp =
  let s = Http.to_string ~keep_alive:false resp in
  let rec scan i =
    if i + 4 > String.length s then Alcotest.fail "response without header end"
    else if String.sub s i 4 = "\r\n\r\n" then
      String.sub s (i + 4) (String.length s - i - 4)
    else scan (i + 1)
  in
  scan 0

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let test_traceparent_round_trip () =
  let supplied = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01" in
  match
    serve_bytes (make_router ())
      ~requests:
        [
          Printf.sprintf "GET /ping HTTP/1.1\r\ntraceparent: %s\r\n\r\n"
            supplied;
          "GET /ping HTTP/1.1\r\n\
           traceparent: garbage\r\n\
           connection: close\r\n\
           \r\n";
        ]
  with
  | [ (st1, hdrs1, _); (st2, hdrs2, _) ] -> (
      check_int "traced request served" 200 st1;
      check_str "supplied context echoed verbatim" supplied
        (Option.value ~default:"?" (List.assoc_opt "traceparent" hdrs1));
      check_int "malformed header still served" 200 st2;
      match List.assoc_opt "traceparent" hdrs2 with
      | None -> Alcotest.fail "no traceparent on the response"
      | Some tp ->
          check_true "generated replacement is well-formed"
            (Obs.Trace.parse_traceparent tp <> None);
          check_true "generated trace differs from the malformed input"
            (not (contains_substring tp "garbage")))
  | _ -> Alcotest.fail "expected two responses"

(* The acceptance criterion for trace correlation: one decide request
   against the real API router yields span events (request root + api
   handler) all stamped with the peer's trace id. *)
let test_trace_correlation_jsonl () =
  let tid = "4bf92f3577b34da6a3ce929d0e0e4736" in
  let path = Filename.temp_file "srv_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Obs.Span.set_trace_sink (Obs.Sink.Channel oc);
          Fun.protect
            ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
            (fun () ->
              with_api (fun api ->
                  let body = {|{"link": "oc3", "class": "dar1"}|} in
                  match
                    serve_bytes (Cac_api.router api)
                      ~requests:
                        [
                          Printf.sprintf
                            "POST /v1/decide HTTP/1.1\r\n\
                             traceparent: 00-%s-00f067aa0ba902b7-01\r\n\
                             content-length: %d\r\n\
                             connection: close\r\n\
                             \r\n\
                             %s"
                            tid (String.length body) body;
                        ]
                  with
                  | [ (st, _, resp) ] ->
                      check_int "decide succeeded" 200 st;
                      check_true "verdict answered"
                        (contains_substring resp "admissible")
                  | _ -> Alcotest.fail "expected one response")));
      let events = List.filter_map Obs.Json.of_string (read_lines path) in
      let span_traced name =
        List.exists
          (fun j ->
            Obs.Json.member "name" j = Some (String name)
            && Obs.Json.member "trace" j = Some (String tid))
          events
      in
      check_true "request root span carries the peer's trace id"
        (span_traced "srv.http.request");
      check_true "api handler span carries the same trace id"
        (span_traced "cac.api.decide"))

let test_access_log () =
  let path = Filename.temp_file "srv_access" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let prev = Obs.Sink.human_sink () in
      Obs.Sink.set_human (Obs.Sink.Channel oc);
      Fun.protect
        ~finally:(fun () ->
          Obs.Sink.set_human prev;
          close_out_noerr oc)
        (fun () ->
          let config =
            {
              Pool.default_config with
              domains = 1;
              access_log = Some Obs.Sink.human_sink;
            }
          in
          let pool = Pool.create ~config (make_router ()) in
          with_socketpair (fun client server ->
              let worker =
                Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server)
              in
              Fun.protect
                ~finally:(fun () -> ignore (Domain.join worker))
                (fun () ->
                  Io.write_string client
                    "GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n";
                  let st, _, _ = read_response (Io.reader client) in
                  check_int "request served" 200 st)));
      match List.filter_map Obs.Json.of_string (read_lines path) with
      | [ line ] ->
          let f name = Obs.Json.member name line in
          check_true "kind tagged" (f "kind" = Some (String "access"));
          check_true "method logged" (f "method" = Some (String "GET"));
          check_true "path logged" (f "path" = Some (String "/ping"));
          check_true "status logged" (f "status" = Some (Int 200));
          check_true "latency logged"
            (match f "us" with Some (Float us) -> us >= 0.0 | _ -> false);
          check_true "trace id logged"
            (match f "trace" with
            | Some (String tid) -> String.length tid = 32
            | _ -> false);
          (* JSON integral floats parse back as Int — accept both. *)
          let non_negative = function
            | Some (Obs.Json.Float us) -> us >= 0.0
            | Some (Obs.Json.Int us) -> us >= 0
            | _ -> false
          in
          check_true "queue wait logged" (non_negative (f "queue_wait_us"));
          check_true "gc pause logged" (non_negative (f "gc_pause_us"))
      | lines ->
          Alcotest.failf "expected one access line, got %d" (List.length lines))

(* The per-request GC attribution loop: a handler that provokes a full
   major and then outlives the consumer's poll interval must see its
   own pause land in [srv.http.gc_pause.us{route}].  Attribution lags
   by at most one poll interval, hence the in-handler sleep and the
   retry loop for the nonzero-sum half. *)
let test_gc_attribution () =
  let ev = Obs.Events.start () in
  Fun.protect
    ~finally:(fun () -> Obs.Events.stop ev)
    (fun () ->
      let router =
        Router.create
          [
            Router.route Http.GET "/gcburn" (fun _ ->
                let junk = ref [] in
                for i = 1 to 200_000 do
                  junk := float_of_int i :: !junk
                done;
                ignore (Sys.opaque_identity !junk);
                junk := [];
                Gc.full_major ();
                Unix.sleepf 0.01;
                Http.text "burned");
          ]
      in
      let config = { Pool.default_config with domains = 1 } in
      let pool = Pool.create ~config router in
      let labels = Obs.Labels.make [ ("route", "/gcburn") ] in
      let snap () =
        Obs.Registry.histogram_snapshot ~labels "srv.http.gc_pause.us"
      in
      let before =
        match snap () with Some h -> h.Obs.Registry.count | None -> 0
      in
      let fire () =
        with_socketpair (fun client server ->
            let worker =
              Domain.spawn (fun () ->
                  Pool.serve_connection pool ~queue_wait_us:0.0 server)
            in
            Fun.protect
              ~finally:(fun () -> ignore (Domain.join worker))
              (fun () ->
                Io.write_string client
                  "GET /gcburn HTTP/1.1\r\nconnection: close\r\n\r\n";
                let st, _, _ = read_response (Io.reader client) in
                check_int "request served" 200 st))
      in
      fire ();
      (match snap () with
      | Some h ->
          check_true "gc_pause observed for every request with events on"
            (h.Obs.Registry.count > before)
      | None -> Alcotest.fail "srv.http.gc_pause.us never created");
      let rec until_nonzero n =
        if n <= 0 then
          Alcotest.fail "attributed gc pause time stayed zero across 20 requests"
        else
          match snap () with
          | Some h when h.Obs.Registry.sum > 0.0 -> ()
          | _ ->
              fire ();
              until_nonzero (n - 1)
      in
      until_nonzero 20)

let test_debug_vars () =
  with_api @@ fun api ->
  let api =
    Cac_api.add_debug_provider api ~name:"test_section" (fun () ->
        Obs.Json.Obj [ ("answer", Obs.Json.Int 42) ])
  in
  let api =
    Cac_api.add_debug_provider api ~name:"test_broken" (fun () ->
        failwith "provider bug")
  in
  let router = Cac_api.router api in
  let _, resp = Router.dispatch router (req_for Http.GET "/debug/vars") in
  check_int "debug vars answers" 200 (Http.status resp);
  match Obs.Json.of_string (response_body resp) with
  | None -> Alcotest.fail "unparseable /debug/vars body"
  | Some doc ->
      let f name = Obs.Json.member name doc in
      check_true "uptime present"
        (match f "uptime_s" with Some (Float u) -> u >= 0.0 | _ -> false);
      check_true "clock source named"
        (match f "clock_source" with
        | Some (String s) -> String.length s > 0
        | _ -> false);
      check_true "registered provider rendered"
        (match f "test_section" with
        | Some s -> Obs.Json.member "answer" s = Some (Obs.Json.Int 42)
        | None -> false);
      check_true "throwing provider degrades, not 500s"
        (f "test_broken" = Some (String "<provider error>"))

(* The breaker list is a /debug/vars section, and the longest GC
   pauses ride in its events section. *)
let test_debug_vars_breakers_and_pauses () =
  with_api @@ fun api ->
  let ev = Obs.Events.start () in
  Fun.protect ~finally:(fun () -> Obs.Events.stop ev) @@ fun () ->
  let router =
    Cac_api.router
      (Cac_api.add_debug_provider api ~name:"events" Obs.Events.debug_json)
  in
  let decide =
    {
      (req_for Http.POST "/v1/decide") with
      Http.body = {|{"link": "oc3", "class": "dar1"}|};
    }
  in
  check_int "decided" 200 (Http.status (snd (Router.dispatch router decide)));
  let _, resp = Router.dispatch router (req_for Http.GET "/debug/vars") in
  check_int "debug vars answers" 200 (Http.status resp);
  match Obs.Json.of_string (response_body resp) with
  | None -> Alcotest.fail "unparseable /debug/vars body"
  | Some doc ->
      check_true "the decide's breaker is listed, closed"
        (Obs.Json.member "breakers" doc
        = Some
            (List
               [
                 Obj
                   [
                     ("link", String "oc3");
                     ("class", String "dar1");
                     ("state", String "closed");
                   ];
               ]));
      (match Obs.Json.member "events" doc with
      | Some events ->
          check_true "events running"
            (Obs.Json.member "running" events = Some (Bool true));
          check_true "top pauses carried"
            (match Obs.Json.member "top_pauses" events with
            | Some (List _) -> true
            | _ -> false);
          (* per-domain pause counts and totals live on /metrics:
             runtime.ev.gc.pause.us{domain,phase}'s _count and _sum *)
          check_true "domains is not repeated here"
            (Obs.Json.member "domains" events = None)
      | None -> Alcotest.fail "no events section");
      List.iter
        (fun gone ->
          check_true (gone ^ " is not repeated here")
            (Obs.Json.member gone doc = None))
        [
          "spans";
          "runtime_collector";
          "runtime_sample_age_s";
          "registry_snapshot_age_s";
          "snapshot_age_s";
          "gc";
          "gc_sampled";
        ]

let test_folded_endpoints_gone () =
  with_api @@ fun api ->
  let router = Cac_api.router api in
  List.iter
    (fun path ->
      let _, resp = Router.dispatch router (req_for Http.GET path) in
      check_int (path ^ " answers 404") 404 (Http.status resp))
    [ "/profile"; "/breakers" ];
  check_true "five GET endpoints"
    (List.filter_map
       (fun (m, p) -> if Http.meth_equal m Http.GET then Some p else None)
       (Router.routes router)
    = [ "/metrics"; "/healthz"; "/debug/vars"; "/heatmap"; "/heatmap.csv" ])

let test_healthz_liveness_fields () =
  with_api @@ fun api ->
  let _, resp = Router.dispatch (Cac_api.router api) (req_for Http.GET "/healthz") in
  check_int "healthz answers" 200 (Http.status resp);
  match Obs.Json.of_string (response_body resp) with
  | Some (Obj fields) ->
      check_true "exactly the five liveness fields"
        (List.map fst fields
        = [ "status"; "state"; "uptime_s"; "links"; "connections" ]);
      check_true "reports ok" (List.assoc "status" fields = String "ok");
      check_true "ready" (List.assoc "state" fields = String "ready");
      check_true "links listed"
        (List.assoc "links" fields = List [ String "oc3" ]);
      check_true "no connections yet"
        (List.assoc "connections" fields = Int 0)
  | _ -> Alcotest.fail "unparseable /healthz body"

(* The first scrape of a router no pool tick has touched: the GC
   gauges come from the snapshot itself, and spans write no series
   (their durations live in srv.http.latency_us{route}). *)
let test_metrics_gc_without_tick () =
  with_api @@ fun api ->
  let _, resp = Router.dispatch (Cac_api.router api) (req_for Http.GET "/metrics") in
  check_int "metrics answers" 200 (Http.status resp);
  let lines = String.split_on_char '\n' (response_body resp) in
  let value name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None)
      lines
  in
  List.iter
    (fun name ->
      check_true (name ^ " exported") (value name <> None))
    [
      "runtime_gc_minor_collections";
      "runtime_gc_major_collections";
      "runtime_gc_compactions";
      "runtime_gc_minor_words";
      "runtime_gc_promoted_words";
      "runtime_gc_major_words";
      "runtime_heap_words";
      "runtime_top_heap_words";
    ];
  check_true "runtime_heap_words > 0"
    (match value "runtime_heap_words" with Some v -> v > 0.0 | None -> false);
  check_true "no span_ series"
    (not (List.exists (fun l -> String.starts_with ~prefix:"span_" l) lines))

let test_heatmap_endpoints () =
  with_api ~links:[ ("oc3", 16140.0, 20.0); ("oc12", 64560.0, 120.0) ]
  @@ fun api ->
  let router = Cac_api.router api in
  let decide link =
    let req =
      {
        (req_for Http.POST "/v1/decide") with
        Http.body = Printf.sprintf {|{"link": %S, "class": "dar1"}|} link;
      }
    in
    let _, resp = Router.dispatch router req in
    check_int (link ^ " decided") 200 (Http.status resp)
  in
  decide "oc3";
  decide "oc12";
  let _, resp = Router.dispatch router (req_for Http.GET "/heatmap") in
  check_int "heatmap answers" 200 (Http.status resp);
  let html = response_body resp in
  check_true "self-contained html" (contains_substring html "<!DOCTYPE html>");
  check_true "renders the m* metric" (contains_substring html "cts.m_star");
  let _, resp = Router.dispatch router (req_for Http.GET "/heatmap.csv") in
  check_int "csv answers" 200 (Http.status resp);
  let csv = response_body resp in
  check_true "csv header"
    (contains_substring csv "buffer_cells,bin_lo,bin_hi,count");
  (* two links with different total buffers → at least two distinct rows *)
  let labels =
    List.fold_left
      (fun acc line ->
        match String.index_opt line ',' with
        | Some i ->
            let label = String.sub line 0 i in
            if label = "buffer_cells" || List.mem label acc then acc
            else label :: acc
        | None -> acc)
      []
      (String.split_on_char '\n' csv)
  in
  check_true "both buffer sizes render as rows" (List.length labels >= 2)

(* {2 Loopback soak: the acceptance criterion}

   10k sequential decides over one keep-alive connection against the
   real daemon ([Srv.Daemon] over TCP), then a /metrics scrape that
   must carry the per-route telemetry. *)

let test_soak_10k_decides () =
  with_daemon { daemon_config with links = [ ("oc3", 16140.0, 20.0, 1e-6) ] }
  @@ fun d ->
  let fd = connect (Daemon.port d) in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      let reader = Io.reader fd in
      let body = {|{"link": "oc3", "class": "dar1"}|} in
      let request =
        Printf.sprintf
          "POST /v1/decide HTTP/1.1\r\n\
           content-type: application/json\r\n\
           content-length: %d\r\n\
           \r\n\
           %s"
          (String.length body) body
      in
      let ok = ref 0 in
      for _ = 1 to 10_000 do
        Io.write_string fd request;
        let st, _, resp = read_response reader in
        if st = 200 && contains_substring resp "admissible" then incr ok
      done;
      check_int "10k keep-alive decides, zero transport errors" 10_000 !ok;
      (* the scrape endpoint reports what just happened *)
      Io.write_string fd "GET /metrics HTTP/1.1\r\n\r\n";
      let st, hdrs, metrics = read_response reader in
      check_int "metrics scrape" 200 st;
      check_true "prometheus content type"
        (contains_substring
           (Option.value ~default:"?" (List.assoc_opt "content-type" hdrs))
           "text/plain");
      check_true "request counter exported"
        (contains_substring metrics "srv_http_requests_total");
      check_true "per-route series exported"
        (contains_substring metrics "route=\"/v1/decide\"");
      check_true "per-route latency histogram exported"
        (contains_substring metrics "srv_http_latency_us");
      check_true "engine counters exported alongside"
        (contains_substring metrics "cac_cache_hits_total"))

(* {2 Daemon lifecycle} *)

let big_link = ("big", 1_000_000.0, 50.0, 1e-6)

(* One request on a fresh connection; the JSON body. *)
let request_json port raw =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      Io.write_string fd raw;
      let st, _, body = read_response (Io.reader fd) in
      check_int "request answered" 200 st;
      match Obs.Json.of_string body with
      | Some doc -> doc
      | None -> Alcotest.failf "unparseable body %S" body)

let get_json port path =
  request_json port
    (Printf.sprintf "GET %s HTTP/1.1\r\nconnection: close\r\n\r\n" path)

let json_at doc path =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some doc)
    path

(* A graceful drain checkpoints the whole table, so the next boot
   restores it from the snapshot alone and replays no journal record. *)
let test_daemon_restart_replays_nothing () =
  with_tmp_dir @@ fun dir ->
  let config =
    { daemon_config with links = [ big_link ]; state_dir = Some dir }
  in
  let n = 12 in
  let admit = {|{"link":"big","class":"z0.975"}|} in
  with_daemon config (fun d ->
      for _ = 1 to n do
        let doc =
          request_json (Daemon.port d)
            (Printf.sprintf
               "POST /v1/admit HTTP/1.1\r\nconnection: close\r\n\
                content-length: %d\r\n\r\n%s"
               (String.length admit) admit)
        in
        check_true "admitted"
          (Obs.Json.member "admitted" doc = Some (Obs.Json.Bool true))
      done);
  with_daemon config (fun d ->
      let health = get_json (Daemon.port d) "/healthz" in
      check_true "healthz reports every connection"
        (json_at health [ "connections" ] = Some (Obs.Json.Int n));
      let vars = get_json (Daemon.port d) "/debug/vars" in
      check_true "queue depth is not repeated in the server section"
        (json_at vars [ "server"; "queue_capacity" ] <> None
        && json_at vars [ "server"; "queue_length" ] = None);
      check_true "checkpoint age is the persist.snapshot.age_s gauge only"
        (json_at vars [ "persist"; "dir" ] <> None
        && json_at vars [ "persist"; "snapshot_age_s" ] = None);
      let recovery = json_at vars [ "persist"; "recovery" ] in
      let at path = Option.bind recovery (fun r -> json_at r path) in
      check_true "recovered from the shutdown snapshot"
        (at [ "snapshot"; "connections" ] = Some (Obs.Json.Int n));
      check_true "no journal record replayed"
        (at [ "records" ] = Some (Obs.Json.Int 0)))

(* [start] must release everything it acquired when the bind fails,
   and when a setting is refused after the logs opened.  lockf locks
   never conflict within one process, so reopening the store alone
   cannot see a leak; the open descriptors (access log, lock file, WAL
   segment) can. *)
let test_daemon_failed_listen_releases_state_dir () =
  with_tmp_dir @@ fun dir ->
  let open_fds () =
    try Array.length (Sys.readdir "/proc/self/fd") with Sys_error _ -> 0
  in
  with_daemon daemon_config @@ fun first ->
  let fds = open_fds () in
  let config =
    {
      daemon_config with
      links = [ big_link ];
      state_dir = Some dir;
      access_log = Some (Filename.concat dir "access.jsonl");
    }
  in
  List.iter
    (fun (what, config, needle) ->
      match quietly (fun () -> Daemon.start config) with
      | Ok _ -> Alcotest.failf "%s: the daemon started" what
      | Error e ->
          check_true
            (Printf.sprintf "%s: error names it: %s" what e)
            (contains_substring e needle))
    [
      ("port in use", { config with port = Daemon.port first }, "cannot listen");
      (* The socket layer would wrap it onto port 4464. *)
      ("port 70000", { config with port = 70000 }, "70000");
      ("cache capacity -1", { config with cache_capacity = -1 }, "capacity");
    ];
  check_int "no descriptor leaked" fds (open_fds ());
  let store =
    Persist.Store.open_ ~dir ~policy:Persist.Wal.Never ~snapshot_every:0
      ~next_seq:1
  in
  Persist.Store.close store

(* [reopen_logs] is the SIGHUP hand-off: the next tick reopens the
   access log and the trace file by path.  Lines written before it stay
   in the renamed files, later ones land in the new files.  Each file
   holds its producer's own JSON objects, nothing wrapped around them. *)
let test_daemon_reopen_logs () =
  with_tmp_dir @@ fun dir ->
  let access = Filename.concat dir "access.jsonl"
  and trace = Filename.concat dir "trace.jsonl" in
  with_daemon { daemon_config with access_log = Some access; trace = Some trace }
    (fun d ->
      ignore (get_json (Daemon.port d) "/healthz");
      Sys.rename access (access ^ ".1");
      Sys.rename trace (trace ^ ".1");
      Daemon.reopen_logs d;
      spin
        (fun () -> Sys.file_exists access && Sys.file_exists trace)
        "the tick never reopened the logs";
      ignore (get_json (Daemon.port d) "/healthz"));
  let lines path needle =
    List.length (List.filter (fun l -> contains_substring l needle) (read_lines path))
  in
  List.iter
    (fun (path, needle) ->
      check_int (path ^ ".1 kept the first request") 1 (lines (path ^ ".1") needle);
      check_int (path ^ " has the second request") 1 (lines path needle))
    [ (access, "/healthz"); (trace, {|"name":"srv.http.request"|}) ];
  let objects path =
    List.map
      (fun l ->
        match Obs.Json.of_string l with
        | Some doc -> doc
        | None -> Alcotest.failf "%s: unparseable line %S" path l)
      (read_lines (path ^ ".1") @ read_lines path)
  in
  List.iter
    (fun doc ->
      check_true "access line: one GET /healthz answered 200"
        (json_at doc [ "kind" ] = Some (Obs.Json.String "access")
        && json_at doc [ "path" ] = Some (Obs.Json.String "/healthz")
        && json_at doc [ "status" ] = Some (Obs.Json.Int 200)))
    (objects access);
  List.iter
    (fun doc ->
      check_true "trace line: one span"
        (json_at doc [ "kind" ] = Some (Obs.Json.String "span")))
    (objects trace)

let suite =
  [
    case "parser: GET with query and headers" test_parse_get;
    case "parser: POST body via content-length" test_parse_post_body;
    case "parser: clean EOF" test_parse_eof;
    case "parser: malformed inputs" test_parse_malformed;
    case "parser: truncated inputs" test_parse_truncated;
    case "parser: oversized inputs" test_parse_oversized;
    case "parser: trickling peer times out" test_parse_timeout;
    case "parser: keep-alive semantics" test_keep_alive_semantics;
    case "router: dispatch, 404, 405" test_router_dispatch;
    case "router: duplicate routes rejected" test_router_rejects_duplicates;
    case "pool: config validation" test_pool_config_validation;
    case "pool: keep-alive round-trips over a socketpair"
      test_round_trip_keep_alive;
    case "pool: parse errors answered then closed"
      test_connection_answers_parse_error;
    case "pool: handler exceptions contained to a 500"
      test_handler_exception_contained;
    slow_case "pool: overload sheds 503 from the accept loop"
      test_overload_sheds_503;
    case "pool: a raising route handler is one counted 500"
      test_route_handler_raise_counted;
    case "trace: traceparent echoed and generated"
      test_traceparent_round_trip;
    case "trace: one decide, one correlated span tree"
      test_trace_correlation_jsonl;
    case "access log: one JSON line per request" test_access_log;
    case "gc attribution: handler pauses land in srv.http.gc_pause.us"
      test_gc_attribution;
    case "debug vars: clock and providers" test_debug_vars;
    case "debug vars: breakers and top pauses"
      test_debug_vars_breakers_and_pauses;
    case "router: /profile, /breakers are 404" test_folded_endpoints_gone;
    case "healthz: exactly the five liveness fields"
      test_healthz_liveness_fields;
    case "metrics: GC gauges before any pool tick, no span series"
      test_metrics_gc_without_tick;
    case "heatmap: per-buffer rows from live decides"
      test_heatmap_endpoints;
    slow_case "daemon: 10k-request loopback soak + metrics scrape"
      test_soak_10k_decides;
    slow_case "daemon: restart after drain replays nothing"
      test_daemon_restart_replays_nothing;
    slow_case "daemon: failed listen releases the state dir"
      test_daemon_failed_listen_releases_state_dir;
    slow_case "daemon: reopen_logs hands off the access log and trace"
      test_daemon_reopen_logs;
    case "parser: bare-LF lines" test_parse_bare_lf;
    test_pipelined_cuts;
    case "parser: a pipelined pair cut at every byte"
      test_pipelined_every_boundary;
    case "http: response bytes golden" test_response_golden;
  ]
