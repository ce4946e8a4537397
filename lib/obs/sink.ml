type t = Null | Channel of out_channel

(* Raw chunk onto a sink, no implicit newline: library code renders
   aligned tables cell by cell through this. *)
let output t s =
  match t with
  | Null -> ()
  | Channel oc ->
      output_string oc s;
      flush oc

(* One [output_string] per line: a channel's lock is held for the
   whole call, so lines written by concurrent domains never interleave.
   Writing the newline separately would let two lines merge into one. *)
let message t line = output t (line ^ "\n")
let messagef t fmt = Printf.ksprintf (message t) fmt

(* The process-wide sink for human-readable operational summaries
   (engine metric reports and the like).  [--quiet] swaps in [Null]. *)
let human = ref (Channel stdout)
let set_human t = human := t
let human_sink () = !human
let printf fmt = Printf.ksprintf (fun s -> output !human s) fmt
