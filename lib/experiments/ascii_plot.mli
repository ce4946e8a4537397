(** Minimal terminal line plots for the figure series, so the bench
    output shows curve {e shapes} (orderings, crossovers) and not just
    numbers.  Pure text, no dependencies. *)

val render :
  ?logx:bool ->
  series:(string * (float * float) array) list ->
  xlabel:string ->
  ylabel:string ->
  unit ->
  string
(** [render ~series ~xlabel ~ylabel ()] draws all series on one 72x20
    canvas.  Each series is assigned a marker character
    (a, b, c, ...); overlapping points show the later series' marker.
    Non-finite y values are skipped.  Returns the multi-line string. *)

val render_figure : ?logx:bool -> Common.figure -> string
(** Render a {!Common.figure}'s series. *)

val emit : ?logx:bool -> Common.figure -> unit
(** {!Common.emit} (table + CSV) followed by a rendered plot.  Table
    and plot both go to the human sink ({!Obs.Sink.human_sink}), so
    [--quiet] silences them. *)
