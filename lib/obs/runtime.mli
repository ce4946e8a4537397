(** Runtime introspection: OCaml GC and heap figures as the eight
    [runtime.*] gauges.

    Nothing stores these gauges.  {!Registry.snapshot} calls {!gauges}
    once per snapshot, so every export — a [/metrics] scrape, a CLI
    [--metrics] document — carries a fresh poll, and no domain has to
    run a sampler. *)

val gauges : unit -> (string * float) list
(** One [Gc.quick_stat] poll as [runtime.gc.minor_collections],
    [runtime.gc.major_collections], [runtime.gc.compactions],
    [runtime.gc.minor_words], [runtime.gc.promoted_words],
    [runtime.gc.major_words], [runtime.heap_words] and
    [runtime.top_heap_words].  Safe from any domain.

    On OCaml 5 the figures are aggregated from per-domain samples
    refreshed at stop-the-world points, so they can lag the true
    totals; they are never ahead.  If the poll reads an unflushed zero
    heap (possible before the first stop-the-world point after worker
    domains spawn), it forces one minor collection and polls again, so
    the published heap is never the zero block. *)
