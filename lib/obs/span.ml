type frame = {
  id : string;
  name : string;
  parent : string option;
  depth : int;
  start_wall : float;
  start_mono : int64;
  trace : string option;
      (* trace id active at [enter] — correlates the span tree of one
         served request across domains and with its exemplars *)
}

(* Per-domain span stack and id sequence; ids are "d<domain>:<seq>" so
   traces from parallel sweeps interleave without colliding. *)
let stack : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let seq : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let trace_sink = Atomic.make Sink.Null
let set_trace_sink s = Atomic.set trace_sink s

(* {2 Sampling}

   Trace emission can be thinned so [--trace] stays usable on
   million-request replays: sampling gates the per-span trace event
   (spans write no registry series).  The policy is
   process-wide (an Atomic, like the sink); the 1-in-N counts it
   drives are per-domain DLS state, one per span name. *)

type sampling = Always | One_in of int

let sampling = Atomic.make Always

let set_sampling policy =
  (match policy with
  | One_in n when n < 1 -> invalid_arg "Span.set_sampling: One_in n < 1"
  | _ -> ());
  Atomic.set sampling policy

let reset_sampling () = Atomic.set sampling Always
let () = Registry.declare_counter "obs.span.sampled_out"

(* Per-domain completion counts, keyed by span name. *)
let seen_key : (string, int ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

(* Decide whether this completion's trace event is emitted; advances
   the calling domain's count for [name].  Only consulted when a trace
   sink is installed, so sampling costs nothing otherwise. *)
let should_emit name =
  match Atomic.get sampling with
  | Always -> true
  | One_in n ->
      let seen = Domain.DLS.get seen_key in
      let k =
        match Hashtbl.find_opt seen name with
        | Some k -> k
        | None ->
            let k = ref 0 in
            Hashtbl.replace seen name k;
            k
      in
      let emit = !k mod n = 0 in
      incr k;
      if not emit then Registry.incr "obs.span.sampled_out";
      emit

let current_depth () = List.length !(Domain.DLS.get stack)
let current () = match !(Domain.DLS.get stack) with [] -> None | f :: _ -> Some f
let current_name () = Option.map (fun f -> f.name) (current ())

let enter name =
  let st = Domain.DLS.get stack in
  let sq = Domain.DLS.get seq in
  incr sq;
  let parent, depth =
    match !st with [] -> (None, 0) | p :: _ -> (Some p.id, p.depth + 1)
  in
  let frame =
    {
      id = Printf.sprintf "d%d:%d" (Domain.self () :> int) !sq;
      name;
      parent;
      depth;
      start_wall = Clock.wall ();
      start_mono = Clock.monotonic_ns ();
      trace = Trace.current_trace_id ();
    }
  in
  st := frame :: !st;
  frame

let exit_ frame ~ok =
  let st = Domain.DLS.get stack in
  (match !st with
  | top :: rest when top == frame -> st := rest
  | _ ->
      (* Unbalanced exit (an inner span escaped): just remove the frame. *)
      st := List.filter (fun f -> not (f == frame)) !st);
  match Atomic.get trace_sink with
  | Sink.Null -> ()
  | sink when not (should_emit frame.name) -> ignore sink
  | sink ->
      let dur_us = Clock.ns_to_us (Clock.elapsed_ns ~since:frame.start_mono) in
      let wall_dur = Clock.wall () -. frame.start_wall in
      Sink.message sink
        (Json.to_string
           (Json.Obj
              [
                ("ts", Json.Float frame.start_wall);
                ("kind", Json.String "span");
                ("name", Json.String frame.name);
                ("id", Json.String frame.id);
                ( "parent",
                  match frame.parent with
                  | Some p -> Json.String p
                  | None -> Json.Null );
                ("depth", Json.Int frame.depth);
                ( "trace",
                  match frame.trace with
                  | Some tid -> Json.String tid
                  | None -> Json.Null );
                ("dur_us", Json.Float dur_us);
                ("wall_dur_s", Json.Float wall_dur);
                ("ok", Json.Bool ok);
              ]))

let with_ ~name fn =
  let frame = enter name in
  match fn () with
  | v ->
      exit_ frame ~ok:true;
      v
  | exception e ->
      exit_ frame ~ok:false;
      raise e
