type event = {
  time : float;
  kind : string;
  name : string;
  fields : (string * Json.t) list;
}

type t = Null | Text of out_channel | Jsonl of out_channel

let event ?time ~kind ~name fields =
  let time = match time with Some t -> t | None -> Clock.wall () in
  { time; kind; name; fields }

let json_of_event e =
  Json.Obj
    (("ts", Json.Float e.time)
    :: ("kind", Json.String e.kind)
    :: ("name", Json.String e.name)
    :: e.fields)

let text_of_field (k, v) =
  Printf.sprintf "%s=%s"
    k
    (match v with
    | Json.String s -> s
    | Json.Int i -> string_of_int i
    | Json.Float x -> Printf.sprintf "%g" x
    | Json.Bool b -> string_of_bool b
    | Json.Null -> "null"
    | v -> Json.to_string v)

(* One [output_string] per line: a channel's lock is held for the
   whole call, so lines written by concurrent domains never interleave.
   Writing the newline separately would let two lines merge into one. *)
let write_line oc line =
  output_string oc (line ^ "\n");
  flush oc

let emit t e =
  match t with
  | Null -> ()
  | Text oc ->
      write_line oc
        (Printf.sprintf "[%s] %s %s" e.kind e.name
           (String.concat " " (List.map text_of_field e.fields)))
  | Jsonl oc -> write_line oc (Json.to_string (json_of_event e))

let message t line =
  match t with
  | Null -> ()
  | Text oc -> write_line oc line
  | Jsonl oc ->
      write_line oc
        (Json.to_string (json_of_event (event ~kind:"message" ~name:"message"
                                          [ ("text", Json.String line) ])))

let messagef t fmt = Printf.ksprintf (message t) fmt

(* Raw chunk onto a sink, no implicit newline: library code renders
   aligned tables cell by cell through this.  A [Jsonl] sink cannot
   carry partial lines, so chunks buffer until a '\n' and each
   completed line becomes one "message" event. *)
let jsonl_partial = Buffer.create 256

let output t s =
  match t with
  | Null -> ()
  | Text oc ->
      output_string oc s;
      flush oc
  | Jsonl _ ->
      Buffer.add_string jsonl_partial s;
      let rec drain () =
        let pending = Buffer.contents jsonl_partial in
        match String.index_opt pending '\n' with
        | None -> ()
        | Some i ->
            Buffer.clear jsonl_partial;
            Buffer.add_substring jsonl_partial pending (i + 1)
              (String.length pending - i - 1);
            message t (String.sub pending 0 i);
            drain ()
      in
      drain ()

(* The process-wide sink for human-readable operational summaries
   (engine metric reports and the like).  [--quiet] swaps in [Null]. *)
let human = ref (Text stdout)
let set_human t = human := t
let human_sink () = !human
let printf fmt = Printf.ksprintf (fun s -> output !human s) fmt
