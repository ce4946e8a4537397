type result = {
  clr : float;
  offered_cells : int;
  lost_cells : int;
  frames : int;
}

(* Queue state threaded across frames. *)
type state = {
  mutable queue : int;  (** cells waiting, excluding the one in service *)
  mutable in_service : bool;
  mutable next_departure : float;  (** absolute time, meaningful when in_service *)
}

let simulate_frame state ~arrivals ~service_time ~buffer_cells =
  (* arrivals: sorted absolute times within this frame. *)
  let lost = ref 0 in
  let serve_until t =
    while state.in_service && state.next_departure <= t do
      if state.queue > 0 then begin
        state.queue <- state.queue - 1;
        state.next_departure <- state.next_departure +. service_time
      end
      else state.in_service <- false
    done
  in
  Array.iter
    (fun ta ->
      serve_until ta;
      if not state.in_service then begin
        state.in_service <- true;
        state.next_departure <- ta +. service_time
      end
      else if state.queue >= buffer_cells then incr lost
      else state.queue <- state.queue + 1)
    arrivals;
  (* Departures after the last arrival are caught by the serve_until
     call at the next frame's first arrival. *)
  !lost

let clr ~sources ~service_cells_per_frame ~buffer_cells ~ts ~frames () =
  assert (frames > 0 && service_cells_per_frame > 0.0 && buffer_cells >= 0);
  let warmup = frames / 20 in
  let service_time = ts /. service_cells_per_frame in
  let state = { queue = 0; in_service = false; next_departure = 0.0 } in
  let offered = ref 0 and lost = ref 0 in
  let run_frame n ~count =
    (* Same chaos hook as the fluid model: one draw per frame. *)
    Resilience.Fault.inject "queueing.mux.step";
    let frame_start = float_of_int n *. ts in
    (* Gather this frame's arrivals from every source, equispaced with
       a half-slot offset so arrivals avoid the frame boundary. *)
    let arrivals = ref [] in
    Array.iter
      (fun source ->
        let cells = Stdlib.max 0 (int_of_float (Float.round (source ()))) in
        if count then offered := !offered + cells;
        if cells > 0 then begin
          let spacing = ts /. float_of_int cells in
          for i = 0 to cells - 1 do
            arrivals :=
              (frame_start +. ((float_of_int i +. 0.5) *. spacing)) :: !arrivals
          done
        end)
      sources;
    let arrivals = Array.of_list !arrivals in
    Array.sort Float.compare arrivals;
    let l = simulate_frame state ~arrivals ~service_time ~buffer_cells in
    if count then lost := !lost + l
  in
  for n = 0 to warmup - 1 do
    run_frame n ~count:false
  done;
  for n = warmup to warmup + frames - 1 do
    run_frame n ~count:true
  done;
  {
    clr =
      (if !offered > 0 then float_of_int !lost /. float_of_int !offered
       else 0.0);
    offered_cells = !offered;
    lost_cells = !lost;
    frames;
  }
