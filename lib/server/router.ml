type handler = Http.request -> Http.response

type route = { meth : Http.meth; path : string; handler : handler }

type t = { routes : route list }

let route meth path handler =
  if path = "" || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Router.route: path %S must start with '/'" path);
  { meth; path; handler }

let create routes =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = Http.meth_name r.meth ^ " " ^ r.path in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Router.create: duplicate route %s" key);
      Hashtbl.replace seen key ())
    routes;
  { routes }

let routes t = List.map (fun r -> (r.meth, r.path)) t.routes

(* The route label used for telemetry: the matched pattern for known
   paths, a single bucket for everything else so hostile paths cannot
   explode the label-set cardinality. *)
let unmatched_label = "unmatched"

let find t (req : Http.request) =
  let matching_path =
    List.filter (fun r -> String.equal r.path req.Http.path) t.routes
  in
  match
    List.find_opt (fun r -> Http.meth_equal r.meth req.Http.meth) matching_path
  with
  | Some r -> Ok r
  | None ->
      if matching_path = [] then Stdlib.Error `Not_found
      else
        Stdlib.Error
          (`Method_not_allowed
            (List.map (fun r -> Http.meth_name r.meth) matching_path))

let resolve t (req : Http.request) =
  match find t req with
  | Ok r -> (r.path, r.handler)
  | Stdlib.Error `Not_found ->
      (unmatched_label, fun _ -> Http.json_error ~status:404 "no such endpoint")
  | Stdlib.Error (`Method_not_allowed allowed) ->
      ( req.Http.path,
        fun _ ->
          Http.response
            ~headers:
              [
                ("allow", String.concat ", " allowed);
                ("content-type", "application/json");
              ]
            ~status:405
            (Obs.Json.to_string
               (Obs.Json.Obj [ ("error", Obs.Json.String "method not allowed") ])
            ^ "\n") )

let dispatch t req =
  let label, handler = resolve t req in
  (label, handler req)

let () = Obs.Registry.declare_counter "srv.http.handler_errors"

(* The one "answer 500 and count it" fallback: the pool's dispatch
   boundary and Cac_api's per-route guard both use it, so a raising
   handler is counted exactly once, by whichever boundary catches it. *)
let internal_error _exn =
  Obs.Registry.incr "srv.http.handler_errors";
  Http.json_error ~status:500 "internal error"
