(* Decision latency goes to the registry histogram only; the instance
   keeps fixed-size per-engine counts and a latency sum, so a
   long-running engine's memory does not grow with its traffic. *)

let () =
  Obs.Registry.declare_histogram ~lo:0.0 ~hi:500.0 ~bins:100
    "cac.engine.decision_latency_us"

type t = {
  mutable admits : int;
  mutable rejects : int;
  mutable releases : int;
  mutable fallbacks : int;  (* degraded (peak-rate) decisions *)
  mutable latency_sum_us : float;
  h_latency : Obs.Registry.Histogram.t;  (* resolves a shard per domain *)
}

let create () =
  {
    admits = 0;
    rejects = 0;
    releases = 0;
    fallbacks = 0;
    latency_sum_us = 0.0;
    h_latency = Obs.Registry.Histogram.v "cac.engine.decision_latency_us";
  }

(* Decisions slower than the histogram's 500 us top land in its
   overflow bin: counted, never dropped. *)
let record_latency t latency =
  let us = latency *. 1e6 in
  Obs.Registry.Histogram.observe t.h_latency us;
  t.latency_sum_us <- t.latency_sum_us +. us

let record_admit t ~latency =
  t.admits <- t.admits + 1;
  record_latency t latency

let record_reject t ~latency =
  t.rejects <- t.rejects + 1;
  record_latency t latency

let record_release t = t.releases <- t.releases + 1
let record_fallback t = t.fallbacks <- t.fallbacks + 1
let admits t = t.admits
let rejects t = t.rejects
let releases t = t.releases
let fallbacks t = t.fallbacks
let decisions t = t.admits + t.rejects

let blocking_probability t =
  let d = decisions t in
  if d = 0 then 0.0 else float_of_int t.rejects /. float_of_int d

let latency_sum_us t = t.latency_sum_us

let latency_mean_us t =
  let d = decisions t in
  if d = 0 then 0.0 else t.latency_sum_us /. float_of_int d

let print ?(label = "cac") t =
  let sink = Obs.Sink.human_sink () in
  Obs.Sink.messagef sink "%s: %d admits, %d rejects, %d releases (blocking %.4f)"
    label t.admits t.rejects t.releases (blocking_probability t);
  if t.fallbacks > 0 then
    Obs.Sink.messagef sink
      "%s: %d degraded decisions (peak-rate fallback, fail-closed)" label
      t.fallbacks;
  if decisions t > 0 then
    Obs.Sink.messagef sink "%s: decision latency %.2f us mean (n = %d)" label
      (latency_mean_us t) (decisions t)
