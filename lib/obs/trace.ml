(* W3C trace-context propagation.

   A context is a (trace id, span id) pair in the `traceparent` wire
   format: version 00, 16-byte trace id and 8-byte parent id as
   lowercase hex.  The current context lives in Domain.DLS, so it
   flows implicitly from the serving pool through the engine into
   every span completion and histogram exemplar recorded on the same
   domain — no plumbing through call signatures. *)

type t = { trace_id : string; span_id : string }

(* {2 Id generation}

   One {!Numerics.Rng} stream per domain, seeded from the domain id and
   the monotonic clock.  Not cryptographic — trace ids only need to be
   unique enough that two requests' traces never collide in practice.
   Domain.DLS keeps the stream per-domain, so parallel workers never
   contend (same scheme as the span id sequence in Obs.Span). *)

let rng : Numerics.Rng.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Numerics.Rng.create
        ~seed:
          ((((Domain.self () :> int) + 1) * 2654435761)
          + Int64.to_int (Clock.monotonic_ns ())))

let next64 () = Numerics.Rng.uint64 (Domain.DLS.get rng)

let hex_digits = "0123456789abcdef"

let hex16_of_int64 v =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nib =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (4 * (15 - i))) 0xFL)
    in
    Bytes.set b i hex_digits.[nib]
  done;
  Bytes.unsafe_to_string b

(* The all-zero trace/span id is invalid on the wire. *)
let rec nonzero64 () =
  let v = next64 () in
  if Int64.equal v 0L then nonzero64 () else v

let generate () =
  {
    trace_id = hex16_of_int64 (nonzero64 ()) ^ hex16_of_int64 (next64 ());
    span_id = hex16_of_int64 (nonzero64 ());
  }

(* {2 The wire format}

   traceparent: <2 hex version>-<32 hex trace-id>-<16 hex parent-id>-<2
   hex flags>.  Version 00 must be exactly that shape; unknown (but
   well-formed, non-ff) versions may append "-..." fields, which we
   accept and ignore. *)

let is_lower_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false
let all_hex s = s <> "" && String.for_all is_lower_hex s
let all_zero s = String.for_all (Char.equal '0') s

let parse_traceparent raw =
  let s = String.trim raw in
  let n = String.length s in
  if n < 55 then None
  else
    let version = String.sub s 0 2
    and trace_id = String.sub s 3 32
    and span_id = String.sub s 36 16
    and flags = String.sub s 53 2 in
    let dashes = s.[2] = '-' && s.[35] = '-' && s.[52] = '-' in
    let well_formed =
      dashes && all_hex version && all_hex trace_id && all_hex span_id
      && all_hex flags
      && (not (all_zero trace_id))
      && (not (all_zero span_id))
      && version <> "ff"
    in
    let length_ok =
      if version = "00" then n = 55 else n = 55 || (n > 55 && s.[55] = '-')
    in
    if well_formed && length_ok then Some { trace_id; span_id } else None

let to_traceparent t = "00-" ^ t.trace_id ^ "-" ^ t.span_id ^ "-01"

(* {2 The per-domain current context} *)

let context : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get context)

let current_trace_id () =
  match current () with Some c -> Some c.trace_id | None -> None

let with_context ctx f =
  let cell = Domain.DLS.get context in
  let saved = !cell in
  cell := Some ctx;
  Fun.protect ~finally:(fun () -> cell := saved) f
