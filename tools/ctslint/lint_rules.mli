(** Parsetree-level rule checks.

    Rules (ids appear in findings and in [@lint.allow] payloads):

    - [N1] — no structural [=]/[<>] with a float-smelling operand and
      no polymorphic [compare] anywhere; floats need [Float.equal]/
      [Float.compare] or an epsilon helper (NaN breaks structural
      equality silently).
    - [N2] — in numeric kernels ([kernel-path]s), [exp]/[log]-family
      calls and [(/.)]  must sit inside a toplevel binding that
      visibly guards its inputs (assert / invalid_arg /
      [Float.is_finite] / [classify_float] ...), or carry a waiver.
    - [C1] — no toplevel mutable state ([ref], [Hashtbl.create],
      [Buffer.create], [Array.make], ...) at module level outside the
      [allow-toplevel-state] list.
    - [C2] — [Domain.spawn] only in the sanctioned parallel driver;
      [Unix.gettimeofday] only in [Obs.Clock].
    - [H1] — no direct stdout printing from library code outside the
      [printf-allow] list (the missing-[.mli] half of H1 lives in
      {!Lint_driver}).

    Waivers: [[@lint.allow "N1"]] on an expression or value binding
    suppresses the named rules (space/comma separated; no payload
    means all rules) within that node; [[@@@lint.allow "..."]] waives
    from its position to end of file. *)

val run :
  ?facts:Lint_facts.t -> cfg:Lint_config.t -> file:string ->
  Parsetree.structure -> Lint_finding.t list
(** Walk one implementation and return its unwaived findings in
    report order.  [file] is the repo-relative path used both for
    findings and for path-scoped rule applicability.  With [facts]
    (the typed backend), N1 consults the typechecker's float verdicts
    and callee names resolve through typedtree paths instead of
    source spellings. *)

val lid_name : Longident.t -> string
(** Dotted rendering of a longident, shared by the flow passes. *)

(** {2 Waivers, shared with the flow passes} *)

type waivers = (string list * int * int) list
(** [(rules, start-offset, end-offset)] character spans; an empty
    rule list waives everything in the span. *)

val waiver_of_attribute : Parsetree.attribute -> string list option
(** The rules one [[@lint.allow]] attribute names ([Some []] waives
    every rule); [None] for any other attribute. *)

val collect_waivers : Parsetree.structure -> waivers
(** Harvest every [[@lint.allow]]/[[@@@lint.allow]] span. *)

val span_waived : waivers -> rule:string -> int -> bool
