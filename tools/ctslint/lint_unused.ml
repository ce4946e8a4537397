(* U1: interface exports that no other program unit uses.

   Exports come from the .cmti of each library interface; uses come
   from the Texp_ident paths of every implementation .cmt under the
   build root.  Both sides are spelled as unmangled dotted names
   ("Numerics.Float_array.prefix_sums"), so a reference matches an
   export by string.  Inside an implementation, a path may start at a
   local ident: a toplevel value or nested module of the unit itself
   (named through [define]) or a module alias (followed through
   [aliases]). *)

open Typedtree

(* -- name resolution ------------------------------------------------ *)

type scope = {
  names : string Ident.Tbl.t;  (* unit-level ident -> dotted name *)
  aliases : Path.t Ident.Tbl.t;  (* module alias ident -> its target *)
}

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let rec structure_of me =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> structure_of me
  | _ -> None

let rec resolve scope = function
  | Path.Pident id -> (
      match Ident.Tbl.find_opt scope.aliases id with
      | Some p -> resolve scope p
      | None -> (
          match Ident.Tbl.find_opt scope.names id with
          | Some name -> name
          | None -> Lint_typed_loader.unmangle (Ident.name id)))
  | Path.Pdot (p, s) -> resolve scope p ^ "." ^ s
  | p -> Lint_typed_loader.unmangle (Path.name p)

(* Name every value and (non-alias) module a unit binds at module
   level, nested modules included, so that a local reference resolves
   to the same dotted name another unit would spell. *)
let rec define scope prefix str =
  let value id =
    Ident.Tbl.replace scope.names id (prefix ^ "." ^ Ident.name id)
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter value (let_bound_idents vbs)
      | Tstr_primitive vd -> value vd.val_id
      | Tstr_module mb -> define_module scope prefix mb
      | _ -> ())
    str.str_items

and define_module scope prefix mb =
  match (mb.mb_id, alias_target mb.mb_expr) with
  | Some id, None ->
      let name = prefix ^ "." ^ Ident.name id in
      Ident.Tbl.replace scope.names id name;
      Option.iter (define scope name) (structure_of mb.mb_expr)
  | _ -> ()

(* -- one implementation's uses -------------------------------------- *)

type uses = {
  source : string;
  test : bool;
  values : (string, unit) Hashtbl.t;  (* referenced dotted value names *)
  wholes : string list;  (* modules used as a whole *)
}

(* Every value path the unit references, plus every module it uses
   as a whole: a functor argument, an [include] or a packed
   first-class module exposes all of its values.  An alias binding or
   an [open] uses no value by itself. *)
let collect ~modname str =
  let scope = { names = Ident.Tbl.create 64; aliases = Ident.Tbl.create 8 } in
  let values = Hashtbl.create 128 in
  let wholes = ref [] in
  let default = Tast_iterator.default_iterator in
  let alias id p = Ident.Tbl.replace scope.aliases id p in
  let module_binding sub mb =
    match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some p -> alias id p
    | _ -> default.module_binding sub mb
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Hashtbl.replace values (resolve scope p) ()
    | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, body)
      ->
        alias id p;
        sub.Tast_iterator.expr sub body
    | _ -> default.expr sub e
  in
  let module_expr sub me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> wholes := resolve scope p :: !wholes
    | _ -> default.module_expr sub me
  in
  let open_declaration sub od =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default.open_declaration sub od
  in
  let it = { default with module_binding; expr; module_expr; open_declaration } in
  define scope modname str;
  it.structure it str;
  (values, !wholes)

let uses_value u name =
  Hashtbl.mem u.values name
  || List.exists (fun w -> String.starts_with ~prefix:(w ^ ".") name) u.wholes

(* "test/test_core.ml" is test code; so is "<build_root>/test/t.ml". *)
let is_test ~build_root source =
  let rel =
    if String.starts_with ~prefix:(build_root ^ "/") source then
      String.sub source
        (String.length build_root + 1)
        (String.length source - String.length build_root - 1)
    else source
  in
  match Lint_config.normalize rel with "test" :: _ -> true | _ -> false

let implementation_uses ~build_root index =
  Hashtbl.fold
    (fun source cmt acc ->
      if not (Filename.check_suffix source ".ml") then acc
      else
        match Cmt_format.read_cmt cmt with
        | { Cmt_format.cmt_annots = Cmt_format.Implementation str;
            cmt_modname;
            _ } ->
            let values, wholes =
              collect ~modname:(Lint_typed_loader.unmangle cmt_modname) str
            in
            { source; test = is_test ~build_root source; values; wholes }
            :: acc
        | _ -> acc
        | exception _ -> acc)
    index []

(* -- exports -------------------------------------------------------- *)

type export = { name : string; loc : Location.t }

let waived attrs =
  List.exists
    (fun attr ->
      match Lint_rules.waiver_of_attribute attr with
      | Some rules -> rules = [] || List.mem "U1" rules
      | None -> false)
    attrs

let rec exports prefix sg acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd when not (waived vd.val_attributes) ->
          { name = prefix ^ "." ^ vd.val_name.txt; loc = vd.val_loc } :: acc
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> exports (prefix ^ "." ^ name) sg acc
          | _ -> acc)
      | _ -> acc)
    acc sg.sig_items

let t0 ~file msg =
  Lint_finding.at ~file ~line:1 ~col:0 ~rule:"T0"
    (Printf.sprintf "typed backend: %s (run `dune build @check` first)" msg)

(* The two U1 cases for one export, given every unit that uses it;
   [own] is the export's own implementation. *)
let verdict ~file ~own all_uses e =
  let users = List.filter (fun u -> uses_value u e.name) all_uses in
  let self, others =
    List.partition (fun u -> String.equal u.source own) users
  in
  let report msg =
    Some (Lint_finding.v ~file ~loc:e.loc ~rule:"U1" (e.name ^ msg))
  in
  match (self, others) with
  | _, [] ->
      report " is exported but no other module uses it; drop it from the .mli"
  | [], _ when List.for_all (fun u -> u.test) others ->
      report
        " is exported only for test/; delete it with its tests, or waive a \
         test oracle with [@@lint.allow \"U1\"]"
  | _ -> None

let check_interface ~all_uses ~index file =
  match Hashtbl.find_opt index file with
  | None -> [ t0 ~file "no .cmti found for this interface" ]
  | Some cmti -> (
      match Cmt_format.read_cmt cmti with
      | { Cmt_format.cmt_annots = Cmt_format.Interface sg; cmt_modname; _ } ->
          let own = Filename.remove_extension file ^ ".ml" in
          exports (Lint_typed_loader.unmangle cmt_modname) sg []
          |> List.filter_map (verdict ~file ~own all_uses)
      | _ -> [ t0 ~file "the .cmti carries no interface" ]
      | exception exn ->
          [ t0 ~file ("cannot read cmti: " ^ Printexc.to_string exn) ])

let run ~cfg ~build_root ~index mlis =
  match List.filter (Lint_config.lib_code cfg) mlis with
  | [] -> []
  | interfaces ->
      let all_uses = implementation_uses ~build_root index in
      List.concat_map (check_interface ~all_uses ~index) interfaces
