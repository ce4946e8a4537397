type t = {
  excludes : string list;
  allow_toplevel_state : string list;
  float_fields : string list;
  float_idents : string list;
  kernel_paths : string list;
  domain_spawn_paths : string list;
  clock_paths : string list;
  printf_allow : string list;
  mli_exempt : string list;
  lib_prefixes : string list;
}

let default =
  {
    excludes = [ "_build"; ".git" ];
    allow_toplevel_state = [ "lib/obs/registry.ml" ];
    float_fields = [];
    float_idents = [];
    kernel_paths = [ "lib/core"; "lib/numerics" ];
    domain_spawn_paths = [ "lib/cac/sweep.ml" ];
    clock_paths = [ "lib/obs/clock.ml" ];
    printf_allow = [ "lib/obs/sink.ml" ];
    mli_exempt = [];
    lib_prefixes = [ "lib" ];
  }

(* -- path matching ------------------------------------------------- *)

let normalize path =
  let path =
    if String.length path > 1 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

(* A pattern matches a path when its component sequence appears as a
   contiguous run anywhere in the path's components.  Infix (rather
   than prefix) matching lets the same config drive both repo-root
   runs ([lib/core/cts.ml]) and fixture trees that embed the layout
   ([test/fixtures/lint/lib/core/bad.ml]). *)
let matches path pattern =
  let p = normalize path and q = normalize pattern in
  let np = List.length p and nq = List.length q in
  if nq = 0 || nq > np then false
  else
    let parr = Array.of_list p and qarr = Array.of_list q in
    let rec at i j = j >= nq || (parr.(i + j) = qarr.(j) && at i (j + 1)) in
    let rec scan i = i + nq <= np && (at i 0 || scan (i + 1)) in
    scan 0

let matches_any path patterns = List.exists (matches path) patterns

let excluded t path = matches_any path t.excludes
let toplevel_state_allowed t path = matches_any path t.allow_toplevel_state
let kernel t path = matches_any path t.kernel_paths
let domain_spawn_allowed t path = matches_any path t.domain_spawn_paths
let clock_allowed t path = matches_any path t.clock_paths
let printf_allowed t path = matches_any path t.printf_allow
let mli_exempted t path = matches_any path t.mli_exempt
let lib_code t path = matches_any path t.lib_prefixes

(* -- config file --------------------------------------------------- *)

let strip s = String.trim s

let parse_line t lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = strip line in
  if line = "" then t
  else
    let key, value =
      match String.index_opt line ' ' with
      | Some i ->
          ( String.sub line 0 i,
            strip (String.sub line i (String.length line - i)) )
      | None -> (line, "")
    in
    if value = "" then
      failwith (Printf.sprintf "line %d: directive %S needs a value" lineno key)
    else
      (* Path patterns normalize before matching ([lib//core] and
         [lib/core/] both mean [lib/core]); one that normalizes to
         nothing ([/], [./], [.]) would never match anything, so
         reject it here instead of silently ignoring the directive. *)
      let path_pattern v =
        if normalize v = [] then
          failwith
            (Printf.sprintf
               "line %d: path pattern %S normalizes to nothing and would \
                never match"
               lineno v)
        else v
      in
      match key with
      | "exclude" -> { t with excludes = t.excludes @ [ path_pattern value ] }
      | "allow-toplevel-state" ->
          {
            t with
            allow_toplevel_state =
              t.allow_toplevel_state @ [ path_pattern value ];
          }
      | "float-field" -> { t with float_fields = t.float_fields @ [ value ] }
      | "float-ident" -> { t with float_idents = t.float_idents @ [ value ] }
      | "kernel-path" ->
          { t with kernel_paths = t.kernel_paths @ [ path_pattern value ] }
      | "domain-spawn-path" ->
          {
            t with
            domain_spawn_paths = t.domain_spawn_paths @ [ path_pattern value ];
          }
      | "clock-path" ->
          { t with clock_paths = t.clock_paths @ [ path_pattern value ] }
      | "printf-allow" ->
          { t with printf_allow = t.printf_allow @ [ path_pattern value ] }
      | "mli-exempt" ->
          { t with mli_exempt = t.mli_exempt @ [ path_pattern value ] }
      | "lib-prefix" ->
          { t with lib_prefixes = t.lib_prefixes @ [ path_pattern value ] }
      | _ -> failwith (Printf.sprintf "line %d: unknown directive %S" lineno key)

let of_string src =
  let lines = String.split_on_char '\n' src in
  let t, _ =
    List.fold_left
      (fun (t, lineno) line -> (parse_line t lineno line, lineno + 1))
      (default, 1) lines
  in
  t

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  try of_string src
  with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
