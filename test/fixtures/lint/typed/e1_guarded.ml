(* E1 negatives: the raise is caught locally, fenced by a guard
   combinator, or explicitly waived. *)
let parse_class name =
  if name = "" then invalid_arg "class" else name

let handler req =
  try parse_class req with Invalid_argument _ -> "default"

let register router = Router.route router "/classify" handler

let fenced req =
  Resilience.Guard.protect ~fallback:(fun _ -> "d")
    (fun () -> parse_class req)

let register_fenced router = Router.route router "/fenced" fenced

let waived router =
  (Router.route router "/raw" parse_class [@lint.allow "E1"])
