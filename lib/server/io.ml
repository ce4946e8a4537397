exception Timeout of string
exception Closed

(* A deadline is an absolute monotonic instant; [None] waits forever.
   Absolute (rather than per-read relative) deadlines make the
   per-connection read timeout a real bound: a peer trickling one byte
   per second cannot reset the clock. *)
type deadline = int64 option

let deadline_in seconds =
  if not (Float.is_finite seconds) || seconds <= 0.0 then
    invalid_arg "Io.deadline_in: seconds must be finite and > 0";
  Some
    (Int64.add (Obs.Clock.monotonic_ns ())
       (Int64.of_float (seconds *. 1e9)))

(* Block until [fd] is readable or the deadline passes.  EINTR retries
   with the remaining budget recomputed from the monotonic clock. *)
let rec wait_readable ~label fd (deadline : deadline) =
  let timeout_s =
    match deadline with
    | None -> -1.0 (* select: wait forever *)
    | Some d ->
        let remaining_ns = Int64.sub d (Obs.Clock.monotonic_ns ()) in
        if Int64.compare remaining_ns 0L <= 0 then raise (Timeout label)
        else Int64.to_float remaining_ns *. 1e-9
  in
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> raise (Timeout label)
  | _ :: _, _, _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_readable ~label fd deadline

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (** next unread byte in [buf] *)
  mutable len : int;  (** valid bytes in [buf] *)
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

(* Refill the buffer; false on EOF. *)
let refill r deadline =
  wait_readable ~label:"read" r.fd deadline;
  let rec read () =
    match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
    | 0 -> false
    | n ->
        r.pos <- 0;
        r.len <- n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  read ()

exception Line_too_long

(* One CRLF- (or bare-LF-) terminated line, terminator stripped.
   [None] on a clean EOF before any byte of the line; EOF mid-line
   raises [Closed]; more than [max] bytes before the LF (a CR among
   them) raises [Line_too_long].  Each fill is searched for the LF and
   copied a chunk at a time: a line that lies in one fill is one
   [Bytes.sub_string], and only a line split across fills collects its
   pieces in a [Buffer]. *)
let read_line r ~max deadline =
  let rec newline i =
    if i >= r.len then -1
    else if Bytes.unsafe_get r.buf i = '\n' then i
    else newline (i + 1)
  in
  (* [seen] holds the line's bytes from earlier fills. *)
  let rec go seen =
    if r.pos >= r.len && not (refill r deadline) then
      if Option.is_some seen then raise Closed else None
    else begin
      let start = r.pos in
      let lf = newline start in
      let stop = if lf < 0 then r.len else lf in
      let before = match seen with None -> 0 | Some b -> Buffer.length b in
      if before + (stop - start) > max then raise Line_too_long;
      r.pos <- (if lf < 0 then r.len else lf + 1);
      match seen with
      | None when lf >= 0 ->
          let stop =
            if stop > start && Bytes.get r.buf (stop - 1) = '\r' then stop - 1
            else stop
          in
          Some (Bytes.sub_string r.buf start (stop - start))
      | _ ->
          let b = match seen with Some b -> b | None -> Buffer.create 256 in
          Buffer.add_subbytes b r.buf start (stop - start);
          if lf < 0 then go (Some b)
          else begin
            let n = Buffer.length b in
            let n = if n > 0 && Buffer.nth b (n - 1) = '\r' then n - 1 else n in
            Some (Buffer.sub b 0 n)
          end
    end
  in
  go None

(* Exactly [n] bytes; raises [Closed] if the peer quits early. *)
let read_exact r n deadline =
  if n < 0 then invalid_arg "Io.read_exact: negative length";
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.pos >= r.len && not (refill r deadline) then raise Closed;
    let take = Stdlib.min (n - !filled) (r.len - r.pos) in
    Bytes.blit r.buf r.pos out !filled take;
    r.pos <- r.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let rec write_all fd s pos len =
  if len > 0 then begin
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
  end

let write_string fd s = write_all fd s 0 (String.length s)
