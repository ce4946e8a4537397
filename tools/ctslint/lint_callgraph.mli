(** L1/E1 — lock/Domain discipline and exception-escape checking over
    a lightweight, name-resolved call graph.

    - [L1] — blocking operations ([Unix.sleepf], socket reads,
      [Domain.join], [Resilience.Fault] injection points) must not be
      reachable from a [Mutex.protect] critical section, including
      closures handed to lock wrappers (the [with_engine] pattern);
      and toplevel mutable state must not be mutated by code
      reachable from a [Domain.spawn] site.
    - [E1] — handlers registered with [Router.route] and tasks handed
      to [Domain.spawn] must not have an escaping raise in their call
      graph; [try], [match ... with exception], [Guard.protect] and
      [Breaker.call] count as catchers.

    Analyses are whole-input: pass every module of interest in one
    [run] call so cross-module calls resolve.  [[@lint.allow
    "L1"/"E1"]] waivers in the file containing the reported site
    apply. *)

type input = {
  file : string;  (** repo-relative path, used in findings *)
  modname : string;  (** dotted module name, e.g. ["Cac.Engine"] *)
  structure : Parsetree.structure;
  facts : Lint_facts.t option;  (** typed backend's resolved names *)
}

val modname_of_path : string -> string
(** Conventional module name for a source path:
    ["lib/cac/engine.ml"] is ["Cac.Engine"] (with the [lib/server] →
    [Srv] renaming), anything else capitalizes the basename. *)

val run : cfg:Lint_config.t -> input list -> Lint_finding.t list
(** Harvest every input, then run both analyses and return unwaived
    findings in report order.  [cfg]'s [allow-toplevel-state] paths
    keep their module state out of the L1 mutation check. *)
