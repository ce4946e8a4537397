(* L1/E1 — whole-program passes over a lightweight call graph.

   One harvest walk per toplevel binding collects, per function:
   outgoing calls (with an "inside a catcher" flag), direct blocking
   operations, direct raise sites, and direct mutations of the
   module's toplevel mutable state.  Two analyses then run over the
   graph:

   - L1 (lock/Domain discipline): blocking operations and
     fault-injection points must not be reachable from a
     [Mutex.protect] critical section (the [Srv.Cac_api] engine mutex
     serializes the decision hot path — a sleep inside it stalls
     every worker domain), and toplevel mutable state must not be
     mutated by code reachable from a [Domain.spawn] site (Atomic and
     DLS state never matches because only the C1 allocator vocabulary
     defines "toplevel mutable state").  Critical sections travel
     through lock wrappers: a function whose [Mutex.protect] thunk
     calls one of its own parameters (the [with_engine] pattern)
     makes every closure passed at its call sites a critical section.

   - E1 (exception escape): a handler registered with [Router.route]
     or a task handed to [Domain.spawn] must not have an escaping
     raise in its call graph — exceptions there surface as blanket
     500s or are lost until [Domain.join].  [try], [match ... with
     exception], [Guard.protect] and [Breaker.call] count as
     catchers; calls to [*_exn] functions count as raise
     sites; [assert] does not (it is the N2 guard idiom).

   Resolution is name-based: a qualified call resolves to every known
   function whose dotted name ends with the called path (preferring a
   same-module match); an unqualified call resolves only within its
   own module.  The same analysis therefore runs from source
   spellings (syntactic backend, fixtures) and from resolved
   typedtree paths (typed backend). *)

open Parsetree

type input = {
  file : string;
  modname : string;
  structure : Parsetree.structure;
  facts : Lint_facts.t option;
}

(* -- vocabulary ----------------------------------------------------- *)

let blocking_patterns =
  [
    "Unix.sleepf"; "Unix.sleep"; "Unix.select"; "Unix.accept"; "Unix.connect";
    "Unix.recv"; "Unix.send"; "Unix.read"; "Unix.write"; "Thread.delay";
    "Domain.join"; "Fault.inject"; "Fault.inject_float"; "Io.read_line";
    "Io.read_exact"; "Unix.fsync"; "Unix.single_write";
  ]

let mutator_patterns =
  [
    "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take";
    "Queue.clear"; "Stack.push"; "Stack.pop"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.clear"; "Buffer.reset"; "Array.set";
    "Bytes.set"; "Array.fill"; "Array.blit";
  ]

let raiser_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Calling through one of these catches whatever the thunk raises. *)
let catcher_patterns = [ "Guard.protect"; "Breaker.call" ]

let lock_patterns = [ "Mutex.protect" ]

let allocator_names =
  [
    "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Array.make"; "Array.create_float"; "Bytes.create"; "Bytes.make";
  ]

let contains_run name pat =
  let narr = Array.of_list (String.split_on_char '.' name)
  and parr = Array.of_list (String.split_on_char '.' pat) in
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

let matches_any name pats = List.exists (contains_run name) pats

(* Last component ends in "_exn": the project convention for a
   raising variant, treated as a direct raise site. *)
let exn_suffixed name =
  match List.rev (String.split_on_char '.' name) with
  | last :: _ ->
      let n = String.length last in
      n > 4 && String.sub last (n - 4) 4 = "_exn"
  | [] -> false

let strip_stdlib n =
  if String.length n > 7 && String.sub n 0 7 = "Stdlib." then
    String.sub n 7 (String.length n - 7)
  else n

(* -- harvested shapes ----------------------------------------------- *)

type call = { callee : string; caught : bool }

type fn_info = {
  qname : string;  (** e.g. "Cac.Engine.evaluate" *)
  fn_file : string;
  params : string list;
  mutable calls : call list;
  mutable blocking : (string * Location.t) list;
  mutable raise_site : (string * Location.t) option;  (** outside catchers *)
  mutable mutations : (string * Location.t) list;
  mutable lock_wrapper : bool;
}

(* A critical section or entry-point site: function names to resolve
   plus inline closures already harvested. *)
type site = {
  site_file : string;
  site_mod : string;
  site_loc : Location.t;
  site_desc : string;
  site_targets : string list;
  site_inline : fn_info list;
}

type harvest_ctx = {
  facts : Lint_facts.t option;
  file : string;
  modname : string;
  toplevel_mutable : string list;
  spawns : site list ref;
  regions : site list ref;  (** Mutex.protect critical sections *)
  routes : site list ref;
  hof_sites : site list ref;
      (** applications passing a closure argument; become critical
          sections when the callee turns out to be a lock wrapper *)
}

let fresh_info ?(params = []) ~qname ~file () =
  {
    qname;
    fn_file = file;
    params;
    calls = [];
    blocking = [];
    raise_site = None;
    mutations = [];
    lock_wrapper = false;
  }

let site ctx ~loc ~desc ~targets ~inline =
  {
    site_file = ctx.file;
    site_mod = ctx.modname;
    site_loc = loc;
    site_desc = desc;
    site_targets = targets;
    site_inline = inline;
  }

(* -- harvest walk ---------------------------------------------------- *)

let callee_name ~facts e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match facts with
      | Some facts -> (
          match
            Lint_facts.resolve facts e.pexp_loc.Location.loc_start.pos_cnum
          with
          | Some n -> Some (strip_stdlib n)
          | None -> Some (Lint_rules.lid_name txt))
      | None -> Some (Lint_rules.lid_name txt))
  | _ -> None

let rec bound_var pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> bound_var p
  | _ -> None

let rec peel_funs params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let params =
        match bound_var pat with Some v -> v :: params | None -> params
      in
      peel_funs params body
  | _ -> (List.rev params, e)

let has_exception_case cases =
  List.exists
    (fun c ->
      let rec exn p =
        match p.ppat_desc with
        | Ppat_exception _ -> true
        | Ppat_or (a, b) -> exn a || exn b
        | Ppat_alias (p, _) | Ppat_constraint (p, _) -> exn p
        | _ -> false
      in
      exn c.pc_lhs)
    cases

(* Closure-shaped argument of an entry-point call: names to resolve
   plus a harvested inline lambda. *)
let rec closure_target ctx info a =
  match a.pexp_desc with
  | Pexp_fun _ | Pexp_function _ ->
      let sub =
        fresh_info
          ~qname:
            (Printf.sprintf "%s.<fun@%d>" info.qname
               a.pexp_loc.Location.loc_start.pos_lnum)
          ~file:ctx.file ()
      in
      harvest ctx sub ~caught:false a;
      ([], [ sub ])
  | Pexp_ident _ -> (
      match callee_name ~facts:ctx.facts a with
      | Some t -> ([ t ], [])
      | None -> ([], []))
  | Pexp_apply (f, _) -> (
      (* Partial application: the task is whatever [f] names. *)
      match callee_name ~facts:ctx.facts f with
      | Some t -> ([ t ], [])
      | None -> ([], []))
  | Pexp_constraint (a, _) -> closure_target ctx info a
  | _ -> ([], [])

and harvest ctx info ~caught e =
  let name_of e = callee_name ~facts:ctx.facts e in
  let walk = harvest ctx info in
  let walk_cases ~caught cases =
    List.iter
      (fun c ->
        Option.iter (walk ~caught) c.pc_guard;
        walk ~caught c.pc_rhs)
      cases
  in
  match e.pexp_desc with
  | Pexp_ident _ -> (
      match name_of e with
      | Some n ->
          if matches_any n blocking_patterns then
            info.blocking <- (n, e.pexp_loc) :: info.blocking;
          if
            (not caught)
            && (List.mem n raiser_names || exn_suffixed n)
            && info.raise_site = None
          then info.raise_site <- Some (n, e.pexp_loc);
          info.calls <- { callee = n; caught } :: info.calls
      | None -> ())
  | Pexp_apply (fn, args) ->
      let n = Option.value ~default:"" (name_of fn) in
      (* Mutation of toplevel state. *)
      (let mutated target desc =
         match name_of target with
         | Some v when List.mem v ctx.toplevel_mutable ->
             info.mutations <- (desc v, e.pexp_loc) :: info.mutations
         | _ -> ()
       in
       if n = ":=" then (
         match args with
         | (_, lhs) :: _ -> mutated lhs (fun v -> v ^ " := ...")
         | [] -> ())
       else if matches_any n mutator_patterns then
         match args with
         | (_, target) :: _ ->
             mutated target (fun v -> Printf.sprintf "%s on %s" n v)
         | [] -> ());
      (* Domain.spawn: harvest the task. *)
      (if contains_run n "Domain.spawn" then
         let targets, inline =
           List.fold_left
             (fun (ts, is_) (_, a) ->
               let t, i = closure_target ctx info a in
               (t @ ts, i @ is_))
             ([], []) args
         in
         ctx.spawns :=
           site ctx ~loc:e.pexp_loc ~desc:"Domain.spawn task" ~targets ~inline
           :: !(ctx.spawns));
      (* Router.route registration: the handler is the last argument. *)
      (if contains_run n "Router.route" then
         let path =
           List.fold_left
             (fun acc (_, a) ->
               match a.pexp_desc with
               | Pexp_constant (Pconst_string (s, _, _)) -> Some s
               | _ -> acc)
             None args
         in
         match List.rev args with
         | (_, h) :: _ ->
             let targets, inline = closure_target ctx info h in
             ctx.routes :=
               site ctx ~loc:e.pexp_loc
                 ~desc:
                   (match path with
                   | Some p -> Printf.sprintf "handler for %S" p
                   | None -> "route handler")
                 ~targets ~inline
               :: !(ctx.routes)
         | [] -> ());
      (* Mutex.protect: the thunk is a critical section. *)
      (if matches_any n lock_patterns then
         match List.rev args with
         | (_, thunk) :: _ -> (
             match thunk.pexp_desc with
             | Pexp_fun _ | Pexp_function _ ->
                 let sub =
                   fresh_info ~qname:(info.qname ^ ".<critical>")
                     ~file:ctx.file ()
                 in
                 harvest ctx sub ~caught:false thunk;
                 (* A thunk calling the enclosing function's own
                    parameters makes that function a lock wrapper. *)
                 let param_calls, own_calls =
                   List.partition
                     (fun c -> List.mem c.callee info.params)
                     sub.calls
                 in
                 if param_calls <> [] then info.lock_wrapper <- true;
                 sub.calls <- own_calls;
                 ctx.regions :=
                   site ctx ~loc:e.pexp_loc
                     ~desc:(Printf.sprintf "%s in %s" n info.qname)
                     ~targets:[] ~inline:[ sub ]
                   :: !(ctx.regions)
             | _ -> ())
         | [] -> ());
      (* Any call passing a closure argument: a critical section if
         the callee turns out to be a lock wrapper. *)
      (if
         n <> ""
         && (not (matches_any n lock_patterns))
         && List.exists
              (fun (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ -> true
                | _ -> false)
              args
       then
         let inline =
           List.filter_map
             (fun (_, a) ->
               match a.pexp_desc with
               | Pexp_fun _ | Pexp_function _ ->
                   let sub =
                     fresh_info
                       ~qname:
                         (Printf.sprintf "%s.<fun@%d>" info.qname
                            a.pexp_loc.Location.loc_start.pos_lnum)
                       ~file:ctx.file ()
                   in
                   harvest ctx sub ~caught:false a;
                   Some sub
               | _ -> None)
             args
         in
         ctx.hof_sites :=
           site ctx ~loc:e.pexp_loc
             ~desc:(Printf.sprintf "closure passed to %s" n)
             ~targets:[ n ] ~inline
           :: !(ctx.hof_sites));
      (* Calls through a catcher contain the thunk's raises. *)
      let catcher = matches_any n catcher_patterns in
      walk ~caught fn;
      List.iter (fun (_, a) -> walk ~caught:(caught || catcher) a) args
  | Pexp_setfield (target, _, v) ->
      (match name_of target with
      | Some tv when List.mem tv ctx.toplevel_mutable ->
          info.mutations <-
            (tv ^ ".<field> <- ...", e.pexp_loc) :: info.mutations
      | _ -> ());
      walk ~caught target;
      walk ~caught v
  | Pexp_try (b, cases) ->
      walk ~caught:true b;
      walk_cases ~caught cases
  | Pexp_match (scrut, cases) ->
      walk ~caught:(caught || has_exception_case cases) scrut;
      walk_cases ~caught cases
  | Pexp_function cases -> walk_cases ~caught cases
  | Pexp_fun (_, default, _, b) ->
      Option.iter (walk ~caught) default;
      walk ~caught b
  | Pexp_let (_, vbs, b) ->
      List.iter (fun vb -> walk ~caught vb.pvb_expr) vbs;
      walk ~caught b
  | Pexp_letop { let_; ands; body } ->
      walk ~caught let_.pbop_exp;
      List.iter (fun a -> walk ~caught a.pbop_exp) ands;
      walk ~caught body
  | Pexp_sequence (a, b) ->
      walk ~caught a;
      walk ~caught b
  | Pexp_ifthenelse (c, t, e_) ->
      walk ~caught c;
      walk ~caught t;
      Option.iter (walk ~caught) e_
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> walk ~caught a
  | Pexp_tuple es | Pexp_array es -> List.iter (walk ~caught) es
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) -> walk ~caught a
  | Pexp_field (a, _) -> walk ~caught a
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> walk ~caught v) fields;
      Option.iter (walk ~caught) base
  | Pexp_while (c, b) ->
      walk ~caught c;
      walk ~caught b
  | Pexp_for (_, lo, hi, _, b) ->
      walk ~caught lo;
      walk ~caught hi;
      walk ~caught b
  | Pexp_assert a -> walk ~caught:true a
  | Pexp_lazy b
  | Pexp_open (_, b)
  | Pexp_letmodule (_, _, b)
  | Pexp_letexception (_, b)
  | Pexp_newtype (_, b) ->
      walk ~caught b
  | _ -> ()

(* -- toplevel mutable state (C1 vocabulary) ------------------------- *)

let rec peel_constraints e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> peel_constraints e
  | _ -> e

let toplevel_mutable_names ~facts structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match bound_var vb.pvb_pat with
              | None -> None
              | Some v -> (
                  match (peel_constraints vb.pvb_expr).pexp_desc with
                  | Pexp_apply (fn, _) -> (
                      match callee_name ~facts fn with
                      | Some n when List.mem n allocator_names -> Some v
                      | _ -> None)
                  | _ -> None))
            vbs
      | _ -> [])
    structure

(* -- resolution and reachability ------------------------------------ *)

let parent_mod qname =
  match List.rev (String.split_on_char '.' qname) with
  | _ :: (_ :: _ as rev_mods) -> String.concat "." (List.rev rev_mods)
  | _ -> ""

let rec is_suffix suf l =
  if List.length suf > List.length l then false
  else if List.length suf = List.length l then suf = l
  else match l with [] -> false | _ :: tl -> is_suffix suf tl

(* Qualified names may resolve across modules (matching a qualified
   suffix); bare names only within their own module — matching a bare
   [create] against every module's [create] would invent edges. *)
let resolve tbl ~self_mod name =
  let self_key = self_mod ^ "." ^ name in
  if Hashtbl.mem tbl self_key then [ self_key ]
  else
    let comps = String.split_on_char '.' name in
    if List.length comps < 2 then []
    else
      Hashtbl.fold
        (fun k _ acc ->
          if is_suffix comps (String.split_on_char '.' k) then k :: acc
          else acc)
        tbl []

(* Breadth-first search from a site over the call graph.  [stop]
   inspects each function; the first payload found is returned with
   the chain of qualified names that led there.  [edges] selects
   which calls propagate (all of them for L1 — catching an exception
   does not unblock a sleep — uncaught only for E1). *)
let search tbl ~edges ~stop st =
  let visited = Hashtbl.create 32 in
  let queue = Queue.create () in
  let seed_calls self_mod info chain =
    List.iter
      (fun c ->
        if edges c then
          List.iter
            (fun q ->
              if not (Hashtbl.mem visited q) then begin
                Hashtbl.replace visited q ();
                Queue.add (q, chain) queue
              end)
            (resolve tbl ~self_mod c.callee))
      info.calls
  in
  let result = ref None in
  List.iter
    (fun info ->
      if !result = None then
        match stop info with
        | Some payload -> result := Some ([], payload)
        | None -> seed_calls st.site_mod info [])
    st.site_inline;
  List.iter
    (fun t ->
      List.iter
        (fun q ->
          if not (Hashtbl.mem visited q) then begin
            Hashtbl.replace visited q ();
            Queue.add (q, []) queue
          end)
        (resolve tbl ~self_mod:st.site_mod t))
    st.site_targets;
  while !result = None && not (Queue.is_empty queue) do
    let q, chain = Queue.pop queue in
    match Hashtbl.find_opt tbl q with
    | None -> ()
    | Some info -> (
        let chain = chain @ [ q ] in
        match stop info with
        | Some payload -> result := Some (chain, payload)
        | None -> seed_calls (parent_mod q) info chain)
  done;
  !result

let pp_loc (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let pp_chain = function
  | [] -> ""
  | chain -> Printf.sprintf " (via %s)" (String.concat " -> " chain)

(* -- the passes ------------------------------------------------------ *)

type acc = { mutable found : (string * int * Lint_finding.t) list }

let add acc ~file ~(loc : Location.t) ~rule msg =
  acc.found <-
    (file, loc.loc_start.pos_cnum, Lint_finding.v ~file ~loc ~rule msg)
    :: acc.found

let l1_blocking tbl acc sites =
  List.iter
    (fun st ->
      match
        search tbl
          ~edges:(fun _ -> true)
          ~stop:(fun info ->
            match info.blocking with
            | (op, loc) :: _ -> Some (op, loc)
            | [] -> None)
          st
      with
      | Some (chain, (op, loc)) ->
          add acc ~file:st.site_file ~loc:st.site_loc ~rule:"L1"
            (Printf.sprintf
               "blocking operation %s (%s) reachable from %s%s while the \
                lock is held; move it outside the critical section"
               op (pp_loc loc) st.site_desc (pp_chain chain))
      | None -> ())
    sites

let l1_spawn_mutations tbl acc spawns =
  List.iter
    (fun st ->
      match
        search tbl
          ~edges:(fun _ -> true)
          ~stop:(fun info ->
            match info.mutations with
            | (what, loc) :: _ -> Some (what, loc)
            | [] -> None)
          st
      with
      | Some (chain, (what, loc)) ->
          add acc ~file:st.site_file ~loc:st.site_loc ~rule:"L1"
            (Printf.sprintf
               "%s reaches a mutation of toplevel state [%s] (%s)%s; use \
                Atomic, Domain.DLS, or pass the state explicitly"
               st.site_desc what (pp_loc loc) (pp_chain chain))
      | None -> ())
    spawns

let e1_escapes tbl acc entries =
  List.iter
    (fun st ->
      match
        search tbl
          ~edges:(fun c ->
            (* A catcher is a boundary: do not descend into its own
               implementation looking for re-raises. *)
            (not c.caught) && not (matches_any c.callee catcher_patterns))
          ~stop:(fun info ->
            match info.raise_site with
            | Some (n, loc) -> Some (n, loc)
            | None -> None)
          st
      with
      | Some (chain, (n, loc)) ->
          add acc ~file:st.site_file ~loc:st.site_loc ~rule:"E1"
            (Printf.sprintf
               "%s can raise: %s at %s escapes%s; wrap the boundary in \
                Guard.protect or map the failure to a response"
               st.site_desc n (pp_loc loc) (pp_chain chain))
      | None -> ())
    entries

(* -- entry point ----------------------------------------------------- *)

let modname_of_path file =
  let base = Filename.remove_extension (Filename.basename file) in
  let m = String.capitalize_ascii base in
  match List.rev (String.split_on_char '/' (Filename.dirname file)) with
  | dir :: "lib" :: _ ->
      let prefix =
        match dir with "server" -> "Srv" | d -> String.capitalize_ascii d
      in
      prefix ^ "." ^ m
  | _ -> m

let run ~cfg inputs =
  let tbl : (string, fn_info) Hashtbl.t = Hashtbl.create 256 in
  let spawns = ref [] and regions = ref [] in
  let routes = ref [] and hof_sites = ref [] in
  let waivers_by_file = Hashtbl.create 16 in
  (* Harvest every toplevel binding of every input. *)
  List.iter
    (fun (input : input) ->
      Hashtbl.replace waivers_by_file input.file
        (Lint_rules.collect_waivers input.structure);
      let toplevel_mutable =
        if Lint_config.toplevel_state_allowed cfg input.file then []
        else toplevel_mutable_names ~facts:input.facts input.structure
      in
      let ctx =
        {
          facts = input.facts;
          file = input.file;
          modname = input.modname;
          toplevel_mutable;
          spawns;
          regions;
          routes;
          hof_sites;
        }
      in
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match bound_var vb.pvb_pat with
                  | None -> ()
                  | Some name ->
                      let params, _ = peel_funs [] vb.pvb_expr in
                      let info =
                        fresh_info ~params
                          ~qname:(input.modname ^ "." ^ name)
                          ~file:input.file ()
                      in
                      harvest ctx info ~caught:false vb.pvb_expr;
                      Hashtbl.replace tbl info.qname info)
                vbs
          | _ -> ())
        input.structure)
    inputs;
  (* Closures handed to lock wrappers are critical sections too. *)
  let wrapper_regions =
    List.filter
      (fun st ->
        List.exists
          (fun t ->
            List.exists
              (fun q ->
                match Hashtbl.find_opt tbl q with
                | Some info -> info.lock_wrapper
                | None -> false)
              (resolve tbl ~self_mod:st.site_mod t))
          st.site_targets)
      !hof_sites
  in
  let acc = { found = [] } in
  l1_blocking tbl acc (!regions @ wrapper_regions);
  l1_spawn_mutations tbl acc !spawns;
  e1_escapes tbl acc (!routes @ !spawns);
  acc.found
  |> List.filter (fun (file, offset, f) ->
         match Hashtbl.find_opt waivers_by_file file with
         | Some waivers ->
             not (Lint_rules.span_waived waivers ~rule:f.Lint_finding.rule offset)
         | None -> true)
  |> List.map (fun (_, _, f) -> f)
  |> List.sort_uniq Lint_finding.order
