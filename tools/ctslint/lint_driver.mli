(** File discovery, backend selection and report assembly around
    {!Lint_rules}, {!Lint_dataflow} and {!Lint_callgraph}. *)

type backend =
  | Syntactic  (** parse sources directly; zero build required *)
  | Typed
      (** load dune's [.cmt] typedtrees — real float types for N1/N2,
          resolved names for the flow rules; a missing [.cmt] is a
          [T0] finding, never a silent fallback *)

type report = {
  findings : Lint_finding.t list;
  files_scanned : int;
}

val lint_source :
  cfg:Lint_config.t -> file:string -> string -> Lint_finding.t list
(** Syntactically lint one implementation given as a string.
    Unparseable input yields a single [P0] finding rather than an
    exception, so a broken file cannot hide other findings or crash
    CI. *)

val lint_file :
  cfg:Lint_config.t -> ?as_path:string -> string -> Lint_finding.t list
(** Lint a file on disk.  [as_path] overrides the path used for
    findings and path-scoped rules — tests use it to lint fixtures as
    if they lived under [lib/]. *)

val flow_file :
  cfg:Lint_config.t -> ?as_path:string -> string -> Lint_finding.t list
(** Run only the flow rules (F1, and L1/E1 over the file's own
    single-module call graph) on one file — how the fixture tests
    exercise them without a build. *)

val run :
  ?backend:backend ->
  ?flow:bool ->
  ?build_root:string ->
  cfg:Lint_config.t ->
  string list ->
  report
(** Recursively lint every [.ml] under the given files/directories
    (skipping [exclude]d paths) and check the H1 [.mli] pairing for
    library modules.  Findings come back in report order,
    deduplicated by (file, line, column, rule).

    [backend] defaults to [Syntactic].  [flow] additionally runs the
    F1/L1/E1 flow rules under the syntactic backend (they always run
    under the typed one).  [build_root] is where the typed backend
    looks for [.cmt]s, default {!Lint_typed_loader.default_build_root}. *)

val report_to_json : report -> Obs.Json.t

val print_report : ?oc:out_channel -> report -> unit
(** One [file:line:col rule-id message] line per finding plus a
    trailing summary line. *)
