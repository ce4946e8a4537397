(* F1 — intraprocedural NaN dataflow.

   Forward taint from NaN-producing sources (transcendentals, float
   division/power, float-of-string, numbers destructured out of
   parsed JSON) to decision sinks (Cac.Engine calls, Obs.Registry
   observations, serialized HTTP responses).  A path is reported only
   when no finiteness guard dominates the sink in source order:
   binding the value through [Guard.finite] cleanses it at the
   expression level, and a test ([Float.is_finite v], [Float.is_nan
   v], [classify_float v], an [assert] over one of those) cleanses
   the tested variable from that point on.

   The analysis is deliberately linear — one pass per toplevel
   binding in source order, variables keyed by name — which
   approximates dominance well for the let-chain style of this
   codebase and keeps every reported path short enough to act on. *)

open Parsetree

let lid_name = Lint_rules.lid_name

type state = {
  facts : Lint_facts.t option;
  file : string;
  (* var name -> description of the NaN source that tainted it *)
  tainted : (string, string) Hashtbl.t;
  mutable findings : (int * Lint_finding.t) list;
}

(* -- name resolution ------------------------------------------------ *)

let strip_stdlib n =
  if String.length n > 7 && String.sub n 0 7 = "Stdlib." then
    String.sub n 7 (String.length n - 7)
  else n

let callee st e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match st.facts with
      | Some facts -> (
          match
            Lint_facts.resolve facts e.pexp_loc.Location.loc_start.pos_cnum
          with
          | Some n -> Some (strip_stdlib n)
          | None -> Some (lid_name txt))
      | None -> Some (lid_name txt))
  | _ -> None

(* Does [name]'s component list contain [pat]'s components as a
   contiguous run?  Lets one pattern cover both source spellings
   ("Engine.evaluate") and resolved paths ("Cac.Engine.evaluate"). *)
let contains_run name pat =
  let n = String.split_on_char '.' name
  and p = String.split_on_char '.' pat in
  let narr = Array.of_list n and parr = Array.of_list p in
  let nn = Array.length narr and np = Array.length parr in
  if np = 0 || np > nn then false
  else begin
    let hit = ref false in
    for i = 0 to nn - np do
      if not !hit then begin
        let ok = ref true in
        for j = 0 to np - 1 do
          if narr.(i + j) <> parr.(j) then ok := false
        done;
        if !ok then hit := true
      end
    done;
    !hit
  end

(* -- rule vocabulary ------------------------------------------------ *)

(* NaN producers.  [/.] and [**] make NaN from 0/0, inf-inf exponent
   corners; exp/log overflow or domain-error; of_string trusts its
   input. *)
let nan_sources =
  [
    "exp"; "expm1"; "log"; "log10"; "log1p"; "**"; "/."; "Float.exp";
    "Float.expm1"; "Float.log"; "Float.log10"; "Float.log1p"; "Float.pow";
    "Float.of_string"; "float_of_string"; "Float.of_string_opt";
  ]

(* Passing a value through one of these yields a finite float (or
   raises): expression-level cleansing. *)
let cleansers = [ "Guard.finite"; "Resilience.Guard.finite" ]

(* Testing a variable with one of these counts as a dominating guard
   for every later use of that variable. *)
let guard_tests =
  [
    "Float.is_finite"; "Float.is_nan"; "is_finite"; "is_nan";
    "classify_float"; "Float.classify_float"; "Guard.finite";
    "Resilience.Guard.finite";
  ]

(* Decision sinks: a NaN crossing one of these corrupts an admissible
   region, a metric series, or a serialized response. *)
let sink_patterns =
  [
    "Cac.Engine"; "Engine.evaluate"; "Engine.admit"; "Engine.fill";
    "Engine.add_link"; "Engine.add_link_msec"; "Registry.observe";
    "Registry.set_gauge";
    "Http.json"; "Http.response";
  ]

let is_source n = List.mem n nan_sources
let is_cleanser n = List.exists (contains_run n) cleansers
let is_guard_test n = List.mem n guard_tests
let is_sink n = List.exists (fun p -> contains_run n p) sink_patterns

(* -- taint of an expression ---------------------------------------- *)

let rec first_some f = function
  | [] -> None
  | x :: tl -> ( match f x with Some _ as s -> s | None -> first_some f tl)

(* [Some description] when evaluating [e] may produce NaN under the
   current taint state. *)
let rec taint st e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> Hashtbl.find_opt st.tainted v
  | Pexp_apply (fn, args) -> (
      match callee st fn with
      | Some n when is_cleanser n -> None
      | Some n when is_source n ->
          Some
            (Printf.sprintf "%s at line %d" n
               e.pexp_loc.Location.loc_start.pos_lnum)
      | _ -> first_some (fun (_, a) -> taint st a) args)
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> taint st a
  | Pexp_tuple es -> first_some (taint st) es
  | Pexp_constraint (a, _) -> taint st a
  | Pexp_field (a, _) -> taint st a
  | Pexp_ifthenelse (_, t, None) -> taint st t
  | Pexp_ifthenelse (_, t, Some e_) ->
      first_some (taint st) [ t; e_ ]
  | Pexp_sequence (_, b) -> taint st b
  | Pexp_let (_, _, body) -> taint st body
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      first_some (fun c -> taint st c.pc_rhs) cases
  | Pexp_record (fields, base) -> (
      match first_some (fun (_, v) -> taint st v) fields with
      | Some _ as s -> s
      | None -> Option.bind base (taint st))
  | _ -> None

(* -- guards --------------------------------------------------------- *)

(* Clear every variable [cond] visibly tests for finiteness. *)
let apply_guard st cond =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, args) when
              (match callee st fn with
              | Some n -> is_guard_test n
              | None -> false) ->
              List.iter
                (fun (_, a) ->
                  match a.pexp_desc with
                  | Pexp_ident { txt = Longident.Lident v; _ } ->
                      Hashtbl.remove st.tainted v
                  | _ -> ())
                args
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  it.expr it cond

(* -- main walk ------------------------------------------------------ *)

let rec bound_var pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> bound_var p
  | _ -> None

(* A JSON float destructuring ([Obs.Json.Float x]) taints [x]: the
   number came off the wire. *)
let rec taint_json_patterns st pat =
  match pat.ppat_desc with
  | Ppat_construct ({ txt; _ }, Some (_, arg)) ->
      let n = lid_name txt in
      (if contains_run n "Json.Float" then
         match bound_var arg with
         | Some v ->
             Hashtbl.replace st.tainted v
               (Printf.sprintf "JSON number destructured at line %d"
                  pat.ppat_loc.Location.loc_start.pos_lnum)
         | None -> ());
      taint_json_patterns st arg
  | Ppat_tuple ps -> List.iter (taint_json_patterns st) ps
  | Ppat_or (a, b) ->
      taint_json_patterns st a;
      taint_json_patterns st b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> taint_json_patterns st p
  | _ -> ()

let report st loc ~sink ~source =
  let f =
    Lint_finding.v ~file:st.file ~loc ~rule:"F1"
      (Printf.sprintf
         "possible NaN reaches %s: value influenced by %s with no \
          dominating finiteness guard; pass it through \
          Resilience.Guard.finite or test Float.is_finite first"
         sink source)
  in
  st.findings <- (loc.Location.loc_start.pos_cnum, f) :: st.findings

let rec walk st e =
  match e.pexp_desc with
  | Pexp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          walk st vb.pvb_expr;
          match bound_var vb.pvb_pat with
          | Some v -> (
              match taint st vb.pvb_expr with
              | Some src -> Hashtbl.replace st.tainted v src
              | None -> Hashtbl.remove st.tainted v)
          | None -> ())
        vbs;
      walk st body
  | Pexp_sequence (a, b) ->
      walk st a;
      walk st b
  | Pexp_assert cond ->
      walk st cond;
      apply_guard st cond
  | Pexp_ifthenelse (c, t, e_) ->
      walk st c;
      (* A finiteness test dominating the branches also dominates
         everything after the conditional in this linear model —
         faithful for the early-exit style the codebase uses. *)
      apply_guard st c;
      walk st t;
      Option.iter (walk st) e_
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk st scrut;
      apply_guard st scrut;
      List.iter
        (fun c ->
          taint_json_patterns st c.pc_lhs;
          Option.iter (walk st) c.pc_guard;
          walk st c.pc_rhs)
        cases
  | Pexp_apply (fn, args) ->
      (match callee st fn with
      | Some n when is_sink n -> (
          match first_some (fun (_, a) -> taint st a) args with
          | Some source -> report st e.pexp_loc ~sink:n ~source
          | None -> ())
      | Some n when is_guard_test n ->
          (* e.g. a bare [Guard.finite ~label x] statement *)
          apply_guard st e
      | _ -> ());
      walk st fn;
      List.iter (fun (_, a) -> walk st a) args
  | Pexp_fun (_, default, _, body) ->
      Option.iter (walk st) default;
      walk st body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          taint_json_patterns st c.pc_lhs;
          Option.iter (walk st) c.pc_guard;
          walk st c.pc_rhs)
        cases
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> walk st a
  | Pexp_tuple es -> List.iter (walk st) es
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) -> walk st a
  | Pexp_field (a, _) -> walk st a
  | Pexp_setfield (a, _, b) ->
      walk st a;
      walk st b
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> walk st v) fields;
      Option.iter (walk st) base
  | Pexp_array es -> List.iter (walk st) es
  | Pexp_while (c, b) ->
      walk st c;
      walk st b
  | Pexp_for (_, lo, hi, _, b) ->
      walk st lo;
      walk st hi;
      walk st b
  | Pexp_open (_, b) | Pexp_letmodule (_, _, b) | Pexp_letexception (_, b)
  | Pexp_lazy b | Pexp_newtype (_, b) ->
      walk st b
  | _ -> ()

let run ?facts ~file structure =
  let waivers = Lint_rules.collect_waivers structure in
  let findings = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let st =
                { facts; file; tainted = Hashtbl.create 8; findings = [] }
              in
              walk st vb.pvb_expr;
              findings := st.findings @ !findings)
            vbs
      | _ -> ())
    structure;
  !findings
  |> List.filter (fun (offset, _) ->
         not (Lint_rules.span_waived waivers ~rule:"F1" offset))
  |> List.map snd
  |> List.sort Lint_finding.order
