type t = (string * string) list

let empty = []

let valid_key k =
  String.length k > 0
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

let make pairs =
  List.iter
    (fun (k, _) ->
      if not (valid_key k) then
        invalid_arg (Printf.sprintf "Obs.Labels.make: bad label key %S" k))
    pairs;
  let sorted = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) pairs in
  if List.length sorted <> List.length pairs then
    invalid_arg "Obs.Labels.make: duplicate label keys";
  sorted

let is_empty t = t = []
let to_list t = t

let compare_pair (ka, va) (kb, vb) =
  match String.compare ka kb with 0 -> String.compare va vb | c -> c

let compare a b = List.compare compare_pair a b

let escape_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let to_string = function
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_value v)) pairs)
      ^ "}"
