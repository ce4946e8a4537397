(* A closed-loop HTTP/1.1 client over one keep-alive connection, built
   on the daemon's own buffered reader ([Srv.Io]).

   One connection is all a [--domains 1] daemon serves at a time: its
   worker holds a connection until it closes, so a second one would
   only wait in the accept queue.  The daemon closes a connection
   after its per-connection request budget; a response carrying
   [connection: close] makes the next call reconnect. *)

type t = {
  port : int;
  mutable conn : (Unix.file_descr * Srv.Io.reader) option;
  mutable connects : int;
}

type response = { status : int; body : string }

let create ~port = { port; conn = None; connects = 0 }

let close t =
  match t.conn with
  | None -> ()
  | Some (fd, _) ->
      t.conn <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let connection t =
  match t.conn with
  | Some c -> c
  | None ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (match
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
       with
      | () -> ()
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e);
      let c = (fd, Srv.Io.reader fd) in
      t.conn <- Some c;
      t.connects <- t.connects + 1;
      c

let request ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\n\
     host: 127.0.0.1\r\n\
     content-type: application/json\r\n\
     content-length: %d\r\n\
     \r\n\
     %s"
    meth path (String.length body) body

let read_response rd =
  let deadline = Srv.Io.deadline_in 30.0 in
  let line () =
    match Srv.Io.read_line rd ~max:8192 deadline with
    | Some l -> l
    | None -> raise Srv.Io.Closed
  in
  let status =
    match String.split_on_char ' ' (line ()) with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "malformed status line"
  in
  let rec headers len close =
    match line () with
    | "" -> (len, close)
    | h -> (
        match String.index_opt h ':' with
        | None -> headers len close
        | Some i ->
            let name = String.lowercase_ascii (String.sub h 0 i) in
            let value =
              String.trim (String.sub h (i + 1) (String.length h - i - 1))
            in
            if String.equal name "content-length" then
              headers (int_of_string value) close
            else if String.equal name "connection" then
              headers len (String.equal (String.lowercase_ascii value) "close")
            else headers len close)
  in
  let len, close = headers 0 false in
  ({ status; body = Srv.Io.read_exact rd len deadline }, close)

(* Send one raw request and read its response.  Transport failures
   (reset, early close, timeout, garbage) drop the connection and come
   back as [Error]; the next call reconnects. *)
let call t raw =
  match
    let fd, rd = connection t in
    Srv.Io.write_string fd raw;
    read_response rd
  with
  | resp, close_after ->
      if close_after then close t;
      Ok resp
  | exception
      (( Unix.Unix_error _ | Srv.Io.Closed | Srv.Io.Timeout _
       | Srv.Io.Line_too_long | Failure _ ) as e) ->
      close t;
      Error (Printexc.to_string e)

let post t path body = call t (request ~meth:"POST" ~path body)
let get t path = call t (request ~meth:"GET" ~path "")

(* A 2xx answer whose body parses as JSON. *)
let json = function
  | Ok { status; body } when status >= 200 && status < 300 -> (
      match Obs.Json.of_string body with
      | Some doc -> Ok doc
      | None -> Error "response body is not JSON")
  | Ok { status; body } -> Error (Printf.sprintf "HTTP %d: %s" status body)
  | Error e -> Error e
