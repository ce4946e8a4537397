(* ctslint — project-specific static analysis for numeric safety and
   Domain-parallelism discipline.  See docs/static-analysis.md for the
   rule catalogue and rationale.

   Exit codes: 0 clean, 1 findings, 2 usage/internal error. *)

open Ctslint_lib

let usage =
  "ctslint [--backend typed|syntactic] [--config FILE] [--json FILE]\n\
  \        [--sarif FILE] [--flow] [--quiet] [PATH...]\n\
   Lints every .ml under the given paths (default: lib bin bench)\n\
   against the project rules N1 N2 C1 C2 H1 F1 L1 E1, plus U1 on the\n\
   typed backend; exits 1 on findings.  The typed backend reads dune's\n\
   .cmt/.cmti artifacts (build them with `dune build @check`) and\n\
   refuses to degrade silently — a source with no .cmt is a T0\n\
   finding."

let () =
  let config_path = ref None in
  let json_path = ref None in
  let sarif_path = ref None in
  let backend = ref Lint_driver.Syntactic in
  let flow = ref false in
  let quiet = ref false in
  let paths = ref [] in
  let set_backend = function
    | "syntactic" -> backend := Lint_driver.Syntactic
    | "typed" -> backend := Lint_driver.Typed
    | other ->
        Printf.eprintf
          "ctslint: unknown backend %S (expected typed|syntactic)\n"
          other;
        exit 2
  in
  let spec =
    [
      ( "--backend",
        Arg.String set_backend,
        "WHICH analysis backend: syntactic (default) or typed" );
      ( "--config",
        Arg.String (fun s -> config_path := Some s),
        "FILE read policy from FILE (default: .ctslint if present)" );
      ( "--json",
        Arg.String (fun s -> json_path := Some s),
        "FILE also write a machine-readable report to FILE" );
      ( "--sarif",
        Arg.String (fun s -> sarif_path := Some s),
        "FILE also write a SARIF 2.1.0 log to FILE (code scanning)" );
      ( "--flow",
        Arg.Set flow,
        " run the F1/L1/E1 flow rules under the syntactic backend too" );
      ("--quiet", Arg.Set quiet, " suppress the human-readable report");
    ]
  in
  (try Arg.parse spec (fun p -> paths := p :: !paths) usage
   with exn ->
     prerr_endline (Printexc.to_string exn);
     exit 2);
  let cfg =
    match !config_path with
    | Some path -> (
        try Lint_config.load path
        with Failure msg | Sys_error msg ->
          Printf.eprintf "ctslint: bad config: %s\n" msg;
          exit 2)
    | None ->
        if Sys.file_exists ".ctslint" then Lint_config.load ".ctslint"
        else Lint_config.default
  in
  let paths =
    match List.rev !paths with
    | [] ->
        List.filter Sys.file_exists [ "lib"; "bin"; "bench" ]
    | ps -> ps
  in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  if missing <> [] then begin
    Printf.eprintf "ctslint: no such path: %s\n" (String.concat ", " missing);
    exit 2
  end;
  let report = Lint_driver.run ~backend:!backend ~flow:!flow ~cfg paths in
  if not !quiet then Lint_driver.print_report report;
  (match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Lint_driver.report_to_json report));
      output_char oc '\n';
      close_out oc);
  (match !sarif_path with
  | None -> ()
  | Some path -> Lint_sarif.write ~path report.Lint_driver.findings);
  exit (if report.Lint_driver.findings = [] then 0 else 1)
