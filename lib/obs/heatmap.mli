(** Per-buffer CTS heatmaps.

    Collects every labelled series of one histogram name (by default
    [cts.m_star] keyed by [buffer_cells], the per-link total buffer
    recorded by [Core.Bahadur_rao]) out of a registry snapshot and
    renders the m*_b distribution grid: one row per buffer size,
    one column per histogram bin.  All renderers are pure — they
    return strings; the daemon and CLI decide where they go. *)

type t

val of_snapshot : ?name:string -> Registry.snapshot -> t option
(** [of_snapshot snap] gathers the [?name] (default ["cts.m_star"])
    histograms labelled with [buffer_cells], sorted numerically by
    label value.  [None] when no labelled series exist yet (e.g.
    before any evaluation ran). *)

val row_count : t -> int
[@@lint.allow "U1"] (* observed by obs "heatmap: ascii grid" *)
(** Number of distinct label values (heatmap rows). *)

val to_ascii : t -> string
(** Shade-character grid ([" .:-=+*#%@"]), intensity normalized per
    row, with per-row totals and under/overflow counts. *)

val to_csv : t -> string
(** Long format, one line per cell:
    [buffer_cells,bin_lo,bin_hi,count] with a header line. *)

val to_html : t -> string
(** Self-contained page (inline CSS, no external assets) with an
    intensity-colored table and a 5-second meta refresh — the body of
    [GET /heatmap]. *)
