(* Typed-backend front-end: find the .cmt dune left for a source
   file, harvest type facts from its typedtree, and untype it back to
   a parsetree for the shared rule walkers.

   dune writes .cmt files under <build>/<dir>/.<lib>.objs/byte/ with
   [cmt_sourcefile] holding the context-relative source path
   ("lib/cac/engine.ml"), which is exactly the path the driver scans
   — the index below is keyed on it directly.  Generated alias
   modules ("core.ml-gen") are skipped. *)

type loaded = {
  source : string;
  structure : Parsetree.structure;
  facts : Lint_facts.t;
  modname : string;  (** unmangled, e.g. ["Cac.Engine"] *)
}

(* -- dune module-name mangling ------------------------------------- *)

let drop_prefix ~prefix s =
  let np = String.length prefix in
  if String.length s >= np && String.sub s 0 np = prefix then
    String.sub s np (String.length s - np)
  else s

(* "Cac__Engine" -> "Cac.Engine"; "Dune__exe__Cts_cli" -> "Cts_cli". *)
let unmangle name =
  let name = drop_prefix ~prefix:"Dune__exe__" name in
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* -- build-dir scan ------------------------------------------------- *)

let rec scan_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then scan_cmts path acc
          else if
            Filename.check_suffix path ".cmt"
            || Filename.check_suffix path ".cmti"
          then path :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

(* source path (as scanned by the driver) -> cmt path; an interface
   ("lib/cac/engine.mli") maps to its .cmti *)
let index ~build_root =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | { Cmt_format.cmt_sourcefile = Some src; _ }
        when Filename.check_suffix src ".ml" || Filename.check_suffix src ".mli"
        ->
          if not (Hashtbl.mem tbl src) then Hashtbl.replace tbl src cmt_path
      | _ -> ()
      | exception _ -> ())
    (scan_cmts build_root []);
  tbl

(* The default build root: the dune context when run from the
   workspace root, the current directory when already inside it (the
   @lint-typed alias runs there). *)
let default_build_root () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default" then
    "_build/default"
  else "."

(* -- fact harvesting ------------------------------------------------ *)

let rec float_typed ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
      if Path.same p Predef.path_float then Some true else Some false
  | Types.Tconstr (_, _, _) -> Some false
  | Types.Tpoly (ty, _) -> float_typed ty
  | _ -> None

let harvest_facts (str : Typedtree.structure) =
  let facts = Lint_facts.create () in
  let expr sub (e : Typedtree.expression) =
    let offset = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_cnum in
    (match float_typed e.Typedtree.exp_type with
    | Some is_float -> Lint_facts.record_type facts ~offset ~is_float
    | None -> ());
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (path, _, _) ->
        Lint_facts.record_resolved facts ~offset (unmangle (Path.name path))
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.structure it str;
  facts

(* -- entry points --------------------------------------------------- *)

let load_cmt ~source cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | { Cmt_format.cmt_annots = Cmt_format.Implementation str;
      cmt_modname;
      _ } ->
      let facts = harvest_facts str in
      let structure = Untypeast.untype_structure str in
      Ok { source; structure; facts; modname = unmangle cmt_modname }
  | _ -> Error "cmt carries no implementation typedtree"
  | exception exn ->
      Error (Printf.sprintf "cannot read cmt: %s" (Printexc.to_string exn))

let load ~index ~source =
  match Hashtbl.find_opt index source with
  | None ->
      Error
        "no .cmt found for this module (is it part of a dune library or \
         executable? run `dune build @check` first)"
  | Some cmt_path -> load_cmt ~source cmt_path
