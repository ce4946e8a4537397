(** Shared infrastructure for the paper-reproduction experiments: the
    paper's scenario constants, output formatting, CSV export, and the
    simulation scale knobs.

    Scale environment variables (all optional):
    - [CTS_FRAMES]: frames per replication, at least 1 (default 20_000;
      the paper used 500_000),
    - [CTS_REPS]: replications, at least 2 (default 3; the paper used
      60),
    - [CTS_SEED]: master seed, at least 1 (default 1996),
    - [CTS_RESULTS_DIR]: CSV output directory (default [results]).

    A value below its least, or not an integer, is ignored with a
    warning on stderr (once per variable and value per process), and
    the default used. *)

val mu : float
(** Mean frame size: 500 cells/frame. *)

val sigma2 : float
(** Frame-size variance: 5000. *)

val ts : float
(** Frame duration: 0.04 s. *)

val n_fig4 : int
(** Fig. 4 multiplexes 100 sources. *)

val c_fig4 : float
(** Fig. 4 bandwidth per source: 526 cells/frame. *)

val n_main : int
(** Figs. 5–10 multiplex 30 sources. *)

val c_main : float
(** Figs. 5–10 bandwidth per source: 538 cells/frame. *)

val frames : unit -> int
val seed : unit -> int
val results_dir : unit -> string

val practical_buffers_msec : float array
(** The realistic buffer axis of Figs. 4–6 and 8–10: 0.5 to 30 msec. *)

val wide_buffers_msec : float array
(** The Fig. 7 axis: logarithmic up to 2000 msec. *)

(* {2 Figures as data} *)

type series = {
  label : string;
  points : (float * float) array;
  ci_half_width : float array option;
      (** per-point CI half-widths, when simulated *)
}

type figure = {
  id : string;  (** e.g. "fig6a" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

val series : label:string -> (float * float) array -> series

val printf : ('a, unit, string, unit) format4 -> 'a
(** Formatted experiment output via {!Obs.Sink.printf} (the human
    sink): respects [--quiet], never touches stdout directly.
    Experiment modules must use this instead of [Printf.printf]
    (lint rule H1). *)

val save_figure_csv : figure -> unit
(** Long-format CSV [series,x,y,ci_half_width] at
    [results_dir ^ "/" ^ id ^ ".csv"]. *)

val emit : figure -> unit
(** [print_figure] followed by [save_figure_csv]. *)

(* {2 Analytic helpers} *)

val variance_growth : Traffic.Process.t -> Core.Variance_growth.t

val buffer_cells_per_source : msec:float -> n:int -> c:float -> float
(** Per-source buffer (cells) corresponding to a total buffer drain
    time in msec at total capacity [n * c]. *)

val bop_series :
  label:string ->
  Traffic.Process.t ->
  n:int ->
  c:float ->
  buffers_msec:float array ->
  series
(** Bahadur–Rao log10 BOP vs buffer (msec). *)

val cts_series :
  label:string ->
  Traffic.Process.t ->
  n:int ->
  c:float ->
  buffers_msec:float array ->
  series
(** Critical time scale m*_b vs buffer (msec). *)

val acf_series :
  label:string -> Traffic.Process.t -> lags:int array -> series

val clr_sim_series :
  ?frames_scale:int ->
  label:string ->
  Traffic.Process.t ->
  n:int ->
  c:float ->
  buffers_msec:float array ->
  series
(** Simulated finite-buffer log10 CLR with CIs, at the current scale
    knobs.  Zero-loss points are reported as [neg_infinity].
    [frames_scale] (default 1) multiplies CTS_FRAMES for this series —
    used to push cheap models (DAR) deeper into the tail than the
    event-driven LRD models can afford. *)

val log10_or_floor : float -> float
(** [log10 x], with [neg_infinity] for [x <= 0]. *)
