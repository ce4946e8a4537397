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

let protect ~fallback f =
  try f ()
  with exn when not (fatal exn) ->
    Obs.Registry.Counter.incr c_caught;
    fallback exn

let record_fallback () = Obs.Registry.Counter.incr c_fallbacks
let fallbacks () = Obs.Registry.counter_value "cac.guard.fallbacks"

module Breaker = struct
  type state = Closed | Open | Half_open
  type error = Tripped | Failed of exn

  (* The cooldown counts fast-failed calls, not time, so a breaker
     replays bit-identically. *)
  let threshold = 5
  let cooldown = 32

  type t = {
    mutable state : state;
    mutable failures : int;  (* consecutive, while Closed *)
    mutable remaining : int;  (* fast-fails left, while Open *)
    mutable trips : int;
  }

  let create () = { state = Closed; failures = 0; remaining = 0; trips = 0 }

  let state t = t.state
  let consecutive_failures t = t.failures
  let trips t = t.trips

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
    if state = Open then t.remaining <- cooldown

  let trip t =
    t.state <- Open;
    t.remaining <- cooldown;
    t.trips <- t.trips + 1;
    Obs.Registry.Counter.incr c_trips

  let run_closed t f =
    match f () with
    | v ->
        t.failures <- 0;
        Ok v
    | exception exn when not (fatal exn) ->
        t.failures <- t.failures + 1;
        if t.failures >= threshold then trip t;
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
    | Open ->
        t.remaining <- t.remaining - 1;
        Obs.Registry.Counter.incr c_fast_fails;
        (* The cooldown just expired: the *next* call probes. *)
        if t.remaining = 0 then t.state <- Half_open;
        Error Tripped
end
