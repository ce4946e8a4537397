type backend = Syntactic | Typed

type report = {
  findings : Lint_finding.t list;
  files_scanned : int;
}

(* -- filesystem ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let rec collect_suffix cfg suffix path acc =
  if Lint_config.excluded cfg path then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           collect_suffix cfg suffix (Filename.concat path entry) acc)
         acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let collect ~suffix cfg paths =
  List.fold_left (fun acc p -> collect_suffix cfg suffix p acc) [] paths
  |> List.sort_uniq String.compare

(* -- per-file lint ------------------------------------------------- *)

let parse_implementation ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

(* [Ok structure] or the single [P0] finding standing in for it, so a
   broken file cannot hide other findings or crash CI. *)
let parse_result ~file src =
  match parse_implementation ~file src with
  | structure -> Ok structure
  | exception exn ->
      let line, col, detail =
        match exn with
        | Syntaxerr.Error err ->
            let loc = Syntaxerr.location_of_error err in
            ( loc.loc_start.pos_lnum,
              loc.loc_start.pos_cnum - loc.loc_start.pos_bol,
              "syntax error" )
        | Lexer.Error (_, loc) ->
            ( loc.loc_start.pos_lnum,
              loc.loc_start.pos_cnum - loc.loc_start.pos_bol,
              "lexer error" )
        | exn -> (1, 0, Printexc.to_string exn)
      in
      Error
        (Lint_finding.at ~file ~line ~col ~rule:"P0"
           (Printf.sprintf "cannot parse: %s" detail))

let lint_source ~cfg ~file src =
  match parse_result ~file src with
  | Ok structure -> Lint_rules.run ~cfg ~file structure
  | Error finding -> [ finding ]

let lint_file ~cfg ?as_path path =
  let file = match as_path with Some p -> p | None -> path in
  lint_source ~cfg ~file (read_file path)

(* One file through the flow rules alone (F1 intraprocedural, L1/E1
   on a single-module call graph) — the fixture-test entry point. *)
let flow_file ~cfg ?as_path path =
  let file = match as_path with Some p -> p | None -> path in
  match parse_result ~file (read_file path) with
  | Error finding -> [ finding ]
  | Ok structure ->
      let input =
        {
          Lint_callgraph.file;
          modname = Lint_callgraph.modname_of_path file;
          structure;
          facts = None;
        }
      in
      List.sort Lint_finding.order
        (Lint_dataflow.run ~file structure
        @ Lint_callgraph.run ~cfg [ input ])

(* Every library implementation needs a matching interface: the .mli
   is where invariants on the numeric API live, and an absent one
   leaks representation details the rest of the checks assume are
   private. *)
let check_mli_pairing ~cfg files =
  List.filter_map
    (fun file ->
      if
        Lint_config.lib_code cfg file
        && (not (Lint_config.mli_exempted cfg file))
        && not (Sys.file_exists (file ^ "i"))
      then
        Some
          (Lint_finding.at ~file ~line:1 ~col:0 ~rule:"H1"
             (Printf.sprintf "missing interface %s for library module"
                (Filename.basename file ^ "i")))
      else None)
    files

(* -- backends ------------------------------------------------------ *)

(* Flow passes (F1 intraprocedural, L1/E1 whole-program) over a set
   of parsed inputs.  They run on parsetrees, so the syntactic
   backend can host them too ([flow:true]) — without facts they see
   source spellings only. *)
let flow_findings ~cfg inputs =
  List.concat_map
    (fun (i : Lint_callgraph.input) ->
      Lint_dataflow.run ?facts:i.facts ~file:i.file i.structure)
    inputs
  @ Lint_callgraph.run ~cfg inputs

let syntactic_pass ~flow ~cfg files =
  let inputs, parse_failures =
    List.fold_left
      (fun (inputs, failures) file ->
        match parse_result ~file (read_file file) with
        | Ok structure ->
            ( {
                Lint_callgraph.file;
                modname = Lint_callgraph.modname_of_path file;
                structure;
                facts = None;
              }
              :: inputs,
              failures )
        | Error f -> (inputs, f :: failures))
      ([], []) files
  in
  let inputs = List.rev inputs in
  parse_failures
  @ List.concat_map
      (fun (i : Lint_callgraph.input) ->
        Lint_rules.run ~cfg ~file:i.file i.structure)
      inputs
  @ (if flow then flow_findings ~cfg inputs else [])

(* The typed backend refuses to silently degrade: a source with no
   loadable .cmt gets a T0 finding instead of a quiet fallback, so
   "typed clean" always means every module was actually typechecked
   (`dune build @check` produces the artifacts).  U1 checks the
   library interfaces [mlis] against every implementation in the
   build root. *)
let typed_pass ~cfg ~build_root files mlis =
  let index = Lint_typed_loader.index ~build_root in
  let inputs, load_failures =
    List.fold_left
      (fun (inputs, failures) file ->
        match Lint_typed_loader.load ~index ~source:file with
        | Ok loaded ->
            ( {
                Lint_callgraph.file;
                modname = loaded.Lint_typed_loader.modname;
                structure = loaded.Lint_typed_loader.structure;
                facts = Some loaded.Lint_typed_loader.facts;
              }
              :: inputs,
              failures )
        | Error msg ->
            ( inputs,
              Lint_finding.at ~file ~line:1 ~col:0 ~rule:"T0"
                (Printf.sprintf
                   "typed backend: %s (run `dune build @check` first)" msg)
              :: failures ))
      ([], []) files
  in
  let inputs = List.rev inputs in
  load_failures
  @ List.concat_map
      (fun (i : Lint_callgraph.input) ->
        Lint_rules.run ?facts:i.facts ~cfg ~file:i.file i.structure)
      inputs
  @ flow_findings ~cfg inputs
  @ Lint_unused.run ~cfg ~build_root ~index mlis

(* Report order, with one finding per (file, line, column, rule): two
   passes that meet at one position under one rule report it once. *)
let dedup findings =
  let key (f : Lint_finding.t) = (f.file, f.line, f.col, f.rule) in
  let rec keep_first = function
    | a :: b :: tl when key a = key b -> keep_first (a :: tl)
    | a :: tl -> a :: keep_first tl
    | [] -> []
  in
  keep_first (List.stable_sort Lint_finding.order findings)

let run ?(backend = Syntactic) ?(flow = false) ?build_root ~cfg paths =
  let build_root =
    match build_root with
    | Some r -> r
    | None -> Lint_typed_loader.default_build_root ()
  in
  let files = collect ~suffix:".ml" cfg paths in
  let findings =
    (match backend with
    | Syntactic -> syntactic_pass ~flow ~cfg files
    | Typed -> typed_pass ~cfg ~build_root files (collect ~suffix:".mli" cfg paths))
    @ check_mli_pairing ~cfg files
  in
  { findings = dedup findings; files_scanned = List.length files }

(* -- reporting ----------------------------------------------------- *)

let counts_by_rule findings =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let r = f.Lint_finding.rule in
      Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    findings;
  Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let report_to_json t =
  Obs.Json.Obj
    [
      ("tool", Obs.Json.String "ctslint");
      ("version", Obs.Json.Int 2);
      ("files_scanned", Obs.Json.Int t.files_scanned);
      ( "counts",
        Obs.Json.Obj
          (List.map
             (fun (r, n) -> (r, Obs.Json.Int n))
             (counts_by_rule t.findings)) );
      ("findings", Obs.Json.List (List.map Lint_finding.to_json t.findings));
    ]

let print_report ?(oc = stdout) t =
  List.iter
    (fun f -> output_string oc (Lint_finding.to_string f ^ "\n"))
    t.findings;
  if t.findings = [] then
    Printf.fprintf oc "ctslint: %d file(s) clean\n" t.files_scanned
  else
    Printf.fprintf oc "ctslint: %d finding(s) in %d file(s) scanned (%s)\n"
      (List.length t.findings) t.files_scanned
      (counts_by_rule t.findings
      |> List.map (fun (r, n) -> Printf.sprintf "%s:%d" r n)
      |> String.concat " ")
