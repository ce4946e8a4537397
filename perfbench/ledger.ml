(* The traced run's span ledger.

   One span per timed public call, tagged with the op it belongs to.
   Spans nest: a span's self time is its duration minus its direct
   children's.  Everything stays in memory until [write] at exit, so
   recording costs two clock reads and one small allocation.  A
   disabled ledger runs the same code paths untimed, which is how the
   untraced replay that [trace.overhead] compares against is made. *)

type span = {
  op : int;
  name : string;
  depth : int;
  start_ns : float;  (** since the ledger was created *)
  dur_ns : float;
  self_ns : float;
  calls : int;  (** > 1 for an aggregate of a hot closure's calls *)
}

type frame = { mutable child_ns : float }

type t = {
  enabled : bool;
  origin : int64;
  mutable op : int;
  mutable stack : frame list;
  mutable spans : span list;  (** newest first *)
}

let create ~enabled =
  { enabled; origin = Measure.now_ns (); op = 0; stack = []; spans = [] }

let set_op t op = t.op <- op

let charge_parent t ns =
  match t.stack with f :: _ -> f.child_ns <- f.child_ns +. ns | [] -> ()

let span t name f =
  if not t.enabled then f ()
  else begin
    let t0 = Measure.now_ns () in
    let frame = { child_ns = 0.0 } in
    let depth = List.length t.stack in
    t.stack <- frame :: t.stack;
    let finish () =
      let dur = Measure.since_ns t0 in
      t.stack <- List.tl t.stack;
      charge_parent t dur;
      t.spans <-
        {
          op = t.op;
          name;
          depth;
          start_ns = Int64.to_float (Int64.sub t0 t.origin);
          dur_ns = dur;
          self_ns = dur -. frame.child_ns;
          calls = 1;
        }
        :: t.spans
    in
    Fun.protect ~finally:finish f
  end

(* Record [calls] calls of a hot closure as one child span of the
   current span, timed by the caller. *)
let aggregate t name ~calls ~ns =
  if t.enabled && calls > 0 then begin
    charge_parent t ns;
    t.spans <-
      {
        op = t.op;
        name;
        depth = List.length t.stack;
        start_ns = Float.nan;
        dur_ns = ns;
        self_ns = ns;
        calls;
      }
      :: t.spans
  end

type total = { calls : int; dur_ns : float; self_ns : float }

let total t name =
  List.fold_left
    (fun (acc : total) (s : span) ->
      if String.equal s.name name then
        {
          calls = acc.calls + s.calls;
          dur_ns = acc.dur_ns +. s.dur_ns;
          self_ns = acc.self_ns +. s.self_ns;
        }
      else acc)
    { calls = 0; dur_ns = 0.0; self_ns = 0.0 }
    t.spans

(* Mean inclusive time per call, in microseconds. *)
let per_call_us t name =
  let s = total t name in
  Measure.per (s.dur_ns /. 1e3) (float_of_int s.calls)

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  List.iter
    (fun (s : span) ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("op", Obs.Json.Int s.op);
                ("name", Obs.Json.String s.name);
                ("depth", Obs.Json.Int s.depth);
                ("start_us", Obs.Json.Float (s.start_ns /. 1e3));
                ("dur_us", Obs.Json.Float (s.dur_ns /. 1e3));
                ("self_us", Obs.Json.Float (s.self_ns /. 1e3));
                ("calls", Obs.Json.Int s.calls);
              ]));
      output_char oc '\n')
    (List.rev t.spans)
