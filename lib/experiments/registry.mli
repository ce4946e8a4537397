(** The experiment registry: maps stable identifiers to runnable
    reproductions, for the CLI and the bench harness. *)

type entry = {
  id : string;
  title : string;
  simulated : bool;  (** true when cost scales with CTS_FRAMES/CTS_REPS *)
  run : unit -> unit;
}

val all : entry list
(** In paper order: table1, fig1 .. fig10, then ablations. *)

val find : string -> entry option

val run_entry : entry -> unit
(** Print the [######## id: title ########] banner to the human sink
    ({!Obs.Sink.printf}, silenced by [--quiet]), then run the
    experiment inside an [experiment.<id>] telemetry span, ticking
    [experiments.runs] (and [experiments.failures] when it raises —
    the exception still propagates). *)

val run_all : ?include_simulated:bool -> unit -> unit
(** Each entry runs through {!run_entry}. *)
