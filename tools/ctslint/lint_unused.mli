(** U1 — interface exports that no other program unit uses.

    The compiler already rejects a value that nothing inside its own
    module uses ([-warn-error +32]); it cannot see a value that the
    [.mli] exports and that no other module ever calls.  U1 reads the
    [val]s of every library interface from its [.cmti] and the
    [Texp_ident] paths of every implementation [.cmt] under the build
    root (libraries, executables, benchmarks, examples, tools and
    tests), and reports:

    - an export that no other unit references, tests included
      (drop it from the [.mli]);
    - an export that only [test/] references and its own module does
      not use (delete it with its tests, or waive a test oracle).

    Paths are unmangled as {!Lint_typed_loader.unmangle} does, and
    local module aliases ([module Fa = Numerics.Float_array]) are
    resolved.  A module used as a whole (functor argument, [include],
    first-class packing) counts as a use of every value it exports.
    [[@@lint.allow "U1"]] on a [val] waives it. *)

val run :
  cfg:Lint_config.t ->
  build_root:string ->
  index:(string, string) Hashtbl.t ->
  string list ->
  Lint_finding.t list
(** [run ~cfg ~build_root ~index mlis] checks the library interfaces
    among [mlis] ([.mli] paths as the driver scans them) against every
    implementation in [index] ({!Lint_typed_loader.index}).  An
    interface with no loadable [.cmti] is a [T0] finding.
    [build_root] is stripped from artifact source paths before they
    are classified as test or program code. *)
