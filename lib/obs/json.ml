type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The bytes a JSON string must escape: the quote, the backslash and
   the C0 controls. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Keys, methods, paths and trace ids need no escaping, so the common
   case returns [s] itself and builds nothing. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* The C primitive that [Printf]'s [%g] conversions end in.  Calling it
   with a constant format gives the same bytes as [Printf.sprintf]
   without interpreting the format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr x =
  (* [%.12g] when that reads back as [x], else [%.17g], which always
     does.  This is not the shortest form that round-trips: [1. /. 3.]
     prints 0.33333333333333331, 17 digits, although 16 would read
     back.  Journal and snapshot bytes depend on the rule, so it stays.
     JSON has no non-finite literals; those become null at the call
     site. *)
  let short = format_float "%.12g" x in
  if Float.equal (float_of_string short) x then short
  else format_float "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if Float.is_finite x then Buffer.add_string buf (float_repr x)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* {2 A minimal recursive-descent parser}

   Enough JSON to read back what {!to_string} writes (and what jq
   accepts): no surrogate-pair decoding, numbers via [float_of_string]
   with integers recovered when exact. *)

exception Parse_error of string

type state = { input : string; mutable pos : int }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> raise (Parse_error (Printf.sprintf "expected %C at %d" c st.pos))

let parse_literal st word value =
  if
    st.pos + String.length word <= String.length st.input
    && String.sub st.input st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else raise (Parse_error (Printf.sprintf "bad literal at %d" st.pos))

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> raise (Parse_error "unterminated string")
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.input then
              raise (Parse_error "bad \\u escape");
            let hex = String.sub st.input st.pos 4 in
            st.pos <- st.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> raise (Parse_error "bad \\u escape")
            in
            (* Encode the code point as UTF-8 (BMP only). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> raise (Parse_error "bad escape"))
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.input start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> raise (Parse_error (Printf.sprintf "bad number %S" text)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> raise (Parse_error "unexpected end of input")
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> raise (Parse_error "expected ',' or ']'")
        in
        List (items [])
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          expect st '"';
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              List.rev (kv :: acc)
          | _ -> raise (Parse_error "expected ',' or '}'")
        in
        Obj (fields [])
      end
  | Some c -> if is_number_start c then parse_number st
              else raise (Parse_error (Printf.sprintf "unexpected %C" c))

and is_number_start = function '0' .. '9' | '-' -> true | _ -> false

let of_string s =
  let st = { input = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos = String.length s then Some v else None
  | exception Parse_error _ -> None

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
