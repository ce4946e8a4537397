exception Budget_exhausted of string
exception Non_finite of string

let () =
  Obs.Registry.declare_counter "cac.guard.caught";
  Obs.Registry.declare_counter "cac.guard.fallbacks";
  Obs.Registry.declare_counter "cac.guard.breaker_trips";
  Obs.Registry.declare_counter "cac.guard.breaker_fast_fails";
  Obs.Registry.declare_counter "cac.guard.breaker_probes";
  Obs.Registry.declare_counter "cac.guard.breaker_recoveries"

(* Handles are safe to share across domains: each domain resolves its
   own shard cell (see Obs.Registry). *)
let c_caught = Obs.Registry.Counter.v "cac.guard.caught"
let c_fallbacks = Obs.Registry.Counter.v "cac.guard.fallbacks"
let c_trips = Obs.Registry.Counter.v "cac.guard.breaker_trips"
let c_fast_fails = Obs.Registry.Counter.v "cac.guard.breaker_fast_fails"
let c_probes = Obs.Registry.Counter.v "cac.guard.breaker_probes"
let c_recoveries = Obs.Registry.Counter.v "cac.guard.breaker_recoveries"

let finite ~label x = if Float.is_finite x then x else raise (Non_finite label)

(* Never absorb asynchronous/resource exhaustion: containment must not
   turn a dying process into a silently wrong one. *)
let fatal = function Out_of_memory | Stack_overflow -> true | _ -> false

let protect ~label:_ ~fallback f =
  try f ()
  with exn when not (fatal exn) ->
    Obs.Registry.Counter.incr c_caught;
    fallback exn

let record_fallback () = Obs.Registry.Counter.incr c_fallbacks
let fallbacks () = Obs.Registry.counter_value "cac.guard.fallbacks"

module Budget = struct
  type t = { label : string; limit : int; mutable spent : int }

  let create ?(label = "budget") limit = { label; limit; spent = 0 }

  let tick t =
    if t.limit >= 0 && t.spent >= t.limit then raise (Budget_exhausted t.label);
    t.spent <- t.spent + 1

  let exhausted t = t.limit >= 0 && t.spent >= t.limit
end

module Breaker = struct
  type state = Closed | Open | Half_open
  type error = Tripped | Failed of exn

  (* Two cooldown modes.  The default counts fast-failed calls — fully
     deterministic, replays bit-identically.  The optional wall-clock
     mode ([cooldown_s]) holds the breaker open for a duration on
     {!Obs.Clock.monotonic_ns}, which long-running servers want: an
     idle resource should not need [cooldown] incoming calls before it
     is allowed to recover. *)
  type mode = Evals of int | Wall_s of float

  type t = {
    threshold : int;
    mode : mode;
    label : string;
    mutable state : state;
    mutable failures : int;  (* consecutive, while Closed *)
    mutable remaining : int;  (* fast-fails left, while Open (Evals) *)
    mutable reopen_at_ns : int64;  (* probe-allowed time, while Open (Wall_s) *)
    mutable trips : int;
  }

  let create ?(threshold = 5) ?(cooldown = 64) ?cooldown_s ?(label = "breaker")
      () =
    if threshold < 1 then invalid_arg (label ^ ": threshold < 1");
    if cooldown < 0 then invalid_arg (label ^ ": cooldown < 0");
    let mode =
      match cooldown_s with
      | None -> Evals cooldown
      | Some s ->
          if not (Float.is_finite s && s >= 0.0) then
            invalid_arg (label ^ ": cooldown_s must be finite and >= 0");
          Wall_s s
    in
    {
      threshold;
      mode;
      label;
      state = Closed;
      failures = 0;
      remaining = 0;
      reopen_at_ns = 0L;
      trips = 0;
    }

  let state t = t.state
  let consecutive_failures t = t.failures
  let trips t = t.trips
  let wall_clock t = match t.mode with Wall_s _ -> true | Evals _ -> false

  let cooldown_remaining_s t =
    match (t.state, t.mode) with
    | Open, Wall_s _ ->
        let left_ns = Int64.sub t.reopen_at_ns (Obs.Clock.monotonic_ns ()) in
        Some (Float.max 0.0 (Int64.to_float left_ns *. 1e-9))
    | _ -> None

  let state_name = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half-open"

  let state_of_name = function
    | "closed" -> Some Closed
    | "open" -> Some Open
    | "half-open" -> Some Half_open
    | _ -> None

  (* Restore a persisted state without telemetry: recovery re-arms a
     breaker exactly where a snapshot left it, but the trip counters
     must only ever reflect live failures. *)
  let force t state =
    t.state <- state;
    t.failures <- 0;
    match (state, t.mode) with
    | Open, Evals cooldown -> t.remaining <- cooldown
    | Open, Wall_s s ->
        t.reopen_at_ns <-
          Int64.add (Obs.Clock.monotonic_ns ()) (Int64.of_float (s *. 1e9))
    | (Closed | Half_open), _ -> ()

  let trip t =
    t.state <- Open;
    (match t.mode with
    | Evals cooldown -> t.remaining <- cooldown
    | Wall_s s ->
        t.reopen_at_ns <-
          Int64.add (Obs.Clock.monotonic_ns ()) (Int64.of_float (s *. 1e9)));
    t.trips <- t.trips + 1;
    Obs.Registry.Counter.incr c_trips

  let run_closed t f =
    match f () with
    | v ->
        t.failures <- 0;
        Ok v
    | exception exn when not (fatal exn) ->
        t.failures <- t.failures + 1;
        if t.failures >= t.threshold then trip t;
        Error (Failed exn)

  let run_probe t f =
    Obs.Registry.Counter.incr c_probes;
    match f () with
    | v ->
        t.state <- Closed;
        t.failures <- 0;
        Obs.Registry.Counter.incr c_recoveries;
        Ok v
    | exception exn when not (fatal exn) ->
        trip t;
        Error (Failed exn)

  let call t f =
    match t.state with
    | Closed -> run_closed t f
    | Half_open -> run_probe t f
    | Open -> (
        match t.mode with
        | Evals _ ->
            if t.remaining > 0 then begin
              t.remaining <- t.remaining - 1;
              Obs.Registry.Counter.incr c_fast_fails;
              (* The cooldown just expired: the *next* call probes. *)
              if t.remaining = 0 then t.state <- Half_open;
              Error Tripped
            end
            else begin
              (* cooldown = 0: probe immediately. *)
              t.state <- Half_open;
              run_probe t f
            end
        | Wall_s _ ->
            if Int64.compare (Obs.Clock.monotonic_ns ()) t.reopen_at_ns >= 0
            then begin
              t.state <- Half_open;
              run_probe t f
            end
            else begin
              Obs.Registry.Counter.incr c_fast_fails;
              Error Tripped
            end)
end
