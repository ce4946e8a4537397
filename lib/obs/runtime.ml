(* Runtime introspection: the GC and heap figures of one
   [Gc.quick_stat] poll, read by [Registry.snapshot] each time one is
   taken.  Nothing is stored, so there is no sampler to keep alive and
   no single-writer rule: any domain may take a snapshot. *)

let gauges () =
  let g0 = Gc.quick_stat () in
  (* OCaml 5 [Gc.quick_stat] aggregates per-domain figures that are
     only refreshed at stop-the-world points.  A daemon whose worker
     domains sit blocked in [select]/[accept] may never reach one, so
     the aggregate stays frozen at its pre-spawn value — observable as
     an all-zero heap on /metrics.  When the poll sees that unflushed
     state it forces one minor collection (~1 ms, STW) to flush every
     domain's counters; once flushed, heap_words never reads zero
     again, so this fires at most a handful of times at startup. *)
  let g = if g0.Gc.heap_words = 0 then ( Gc.minor (); Gc.quick_stat ()) else g0 in
  [
    ("runtime.gc.minor_collections", float_of_int g.Gc.minor_collections);
    ("runtime.gc.major_collections", float_of_int g.Gc.major_collections);
    ("runtime.gc.compactions", float_of_int g.Gc.compactions);
    ("runtime.gc.minor_words", g.Gc.minor_words);
    ("runtime.gc.promoted_words", g.Gc.promoted_words);
    ("runtime.gc.major_words", g.Gc.major_words);
    ("runtime.heap_words", float_of_int g.Gc.heap_words);
    ("runtime.top_heap_words", float_of_int g.Gc.top_heap_words);
  ]
