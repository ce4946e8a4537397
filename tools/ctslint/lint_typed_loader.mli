(** Typed-backend front-end over dune's [.cmt] artifacts.

    [index ~build_root] scans the build tree once and maps
    context-relative source paths ("lib/cac/engine.ml") to their
    [.cmt]; [load] reads one, harvests {!Lint_facts} from the
    typedtree and untypes it back to a parsetree so the shared rule
    walkers run unchanged — with real types this time. *)

type loaded = {
  source : string;
  structure : Parsetree.structure;
  facts : Lint_facts.t;
  modname : string;  (** unmangled, e.g. ["Cac.Engine"] *)
}

val unmangle : string -> string
(** Undo dune's module-name mangling: ["Cac__Engine"] is
    ["Cac.Engine"], ["Dune__exe__Cts_cli"] is ["Cts_cli"]. *)

val default_build_root : unit -> string
(** ["_build/default"] when visible from the current directory (repo
    root), ["."] otherwise (inside the dune context). *)

val index : build_root:string -> (string, string) Hashtbl.t
(** Source path -> artifact path, for every implementation [.cmt] and
    interface [.cmti] under [build_root].  Generated [.ml-gen] alias
    modules are skipped. *)

val load :
  index:(string, string) Hashtbl.t ->
  source:string ->
  (loaded, string) result

val load_cmt : source:string -> string -> (loaded, string) result
(** Load one [.cmt] directly (tests). *)
