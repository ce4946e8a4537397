(* SARIF 2.1.0 export — the static-analysis interchange shape GitHub
   code scanning ingests.  One run, one driver, one result per
   finding; rule metadata is collected from whichever rules actually
   fired so the log stays small.  SARIF regions are 1-based while the
   linter's columns are 0-based (compiler convention), hence the +1
   on startColumn. *)

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let rule_help = function
  | "N1" -> "Structural equality on floats; use Float.equal/Float.compare."
  | "N2" -> "Unguarded exp/log//. in a numeric kernel; guard inputs."
  | "C1" -> "Toplevel mutable state outside the allowlist."
  | "C2" -> "Domain.spawn or wall-clock call outside its sanctioned module."
  | "H1" -> "Hygiene: stdout printing from library code or missing .mli."
  | "F1" -> "Possible NaN flows to a decision sink with no finiteness guard."
  | "L1" -> "Blocking call under a lock, or spawned task mutating shared state."
  | "E1" -> "Exception can escape a request handler or spawned task."
  | "U1" -> "Interface export that no other module uses, or only tests."
  | "P0" -> "Source failed to parse."
  | "T0" -> "Typed backend could not load a .cmt for this source."
  | r -> r

(* Everything the linter reports is a correctness hazard, not a style
   nit; P0/T0 are analysis failures.  Both map to SARIF "error" so CI
   treats any result as actionable, except hygiene which is
   "warning". *)
let rule_level = function "H1" -> "warning" | _ -> "error"

let result_of_finding (f : Lint_finding.t) =
  Obs.Json.Obj
    [
      ("ruleId", Obs.Json.String f.rule);
      ("level", Obs.Json.String (rule_level f.rule));
      ("message", Obs.Json.Obj [ ("text", Obs.Json.String f.msg) ]);
      ( "locations",
        Obs.Json.List
          [
            Obs.Json.Obj
              [
                ( "physicalLocation",
                  Obs.Json.Obj
                    [
                      ( "artifactLocation",
                        Obs.Json.Obj
                          [
                            ("uri", Obs.Json.String f.file);
                            ("uriBaseId", Obs.Json.String "SRCROOT");
                          ] );
                      ( "region",
                        Obs.Json.Obj
                          [
                            ("startLine", Obs.Json.Int (max 1 f.line));
                            ("startColumn", Obs.Json.Int (f.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]

let rules_of_findings findings =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (f : Lint_finding.t) ->
      if Hashtbl.mem seen f.rule then None
      else begin
        Hashtbl.replace seen f.rule ();
        Some
          (Obs.Json.Obj
             [
               ("id", Obs.Json.String f.rule);
               ( "shortDescription",
                 Obs.Json.Obj
                   [ ("text", Obs.Json.String (rule_help f.rule)) ] );
               ( "defaultConfiguration",
                 Obs.Json.Obj
                   [ ("level", Obs.Json.String (rule_level f.rule)) ] );
             ])
      end)
    findings

let of_findings ?(tool_version = "2") findings =
  let findings = List.sort Lint_finding.order findings in
  Obs.Json.Obj
    [
      ("$schema", Obs.Json.String schema_uri);
      ("version", Obs.Json.String "2.1.0");
      ( "runs",
        Obs.Json.List
          [
            Obs.Json.Obj
              [
                ( "tool",
                  Obs.Json.Obj
                    [
                      ( "driver",
                        Obs.Json.Obj
                          [
                            ("name", Obs.Json.String "ctslint");
                            ( "informationUri",
                              Obs.Json.String
                                "https://example.invalid/ctslint" );
                            ("version", Obs.Json.String tool_version);
                            ( "rules",
                              Obs.Json.List (rules_of_findings findings) );
                          ] );
                    ] );
                ( "results",
                  Obs.Json.List (List.map result_of_finding findings) );
              ];
          ] );
    ]

let to_string ?tool_version findings =
  Obs.Json.to_string (of_findings ?tool_version findings)

let write ?tool_version ~path findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ?tool_version findings);
      output_char oc '\n')
