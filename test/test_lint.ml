(* Golden tests for ctslint over the fixtures in fixtures/lint/.
   Every rule gets a positive fixture and a waived (or otherwise
   sanctioned) negative.  [~as_path] relocates a fixture so the
   path-scoped rules (N2 kernels, C2 sanctioned modules, C1 allowlist,
   H1 library code) see the layout they key on. *)

open Ctslint_lib

let cfg = Lint_config.default

(* dune runtest runs us from test/'s build dir; a manual
   [dune exec test/test_main.exe] runs from the workspace root. *)
let fixture_root =
  if Sys.file_exists "fixtures" then "fixtures/lint"
  else Filename.concat "test" "fixtures/lint"

let fixture name = Filename.concat fixture_root name

(* Compact golden form: "line:col RULE", path-independent. *)
let lint ?(config = cfg) ~as_path name =
  Lint_driver.lint_file ~cfg:config ~as_path (fixture name)
  |> List.map (fun f ->
         Printf.sprintf "%d:%d %s" f.Lint_finding.line f.Lint_finding.col
           f.Lint_finding.rule)

let check = Alcotest.(check (list string))

(* {2 N1: structural comparison on floats} *)

let test_n1_positive () =
  check "float (=), (<>) and polymorphic compare are flagged"
    [ "2:15 N1"; "3:15 N1"; "4:19 N1" ]
    (lint ~as_path:"lib/misc/n1_float_eq.ml" "n1_float_eq.ml")

let test_n1_waived () =
  check "expression, binding and file-scope waivers all suppress N1" []
    (lint ~as_path:"lib/misc/n1_waived.ml" "n1_waived.ml")

let test_n1_message () =
  let actual =
    Lint_driver.lint_file ~cfg ~as_path:"lib/misc/n1_float_eq.ml"
      (fixture "n1_float_eq.ml")
    |> List.map Lint_finding.to_string
  in
  check "full finding lines are stable"
    [
      "lib/misc/n1_float_eq.ml:2:15 N1 structural (=) on a float operand; \
       use Float.equal or an epsilon helper";
      "lib/misc/n1_float_eq.ml:3:15 N1 structural (<>) on a float operand; \
       use Float.equal or an epsilon helper";
      "lib/misc/n1_float_eq.ml:4:19 N1 polymorphic compare; use a typed \
       comparator (Float.compare, String.compare, Int.compare)";
    ]
    actual

(* {2 N2: unguarded transcendentals/divisions in kernels} *)

let test_n2_kernel_positive () =
  check "unguarded exp and (/.) flagged inside a kernel path"
    [ "3:12 N2"; "4:16 N2" ]
    (lint ~as_path:"lib/core/n2_unguarded.ml" "n2_unguarded.ml")

let test_n2_outside_kernel () =
  check "the same code outside kernel paths is not N2's business" []
    (lint ~as_path:"lib/misc/n2_unguarded.ml" "n2_unguarded.ml")

let test_n2_guarded () =
  check "assert guard, waiver and constant folding each silence N2" []
    (lint ~as_path:"lib/core/n2_guarded.ml" "n2_guarded.ml")

(* {2 C1: toplevel mutable state} *)

let test_c1_positive () =
  check "toplevel Hashtbl.create and ref are flagged"
    [ "3:0 C1"; "4:0 C1" ]
    (lint ~as_path:"lib/misc/c1_toplevel.ml" "c1_toplevel.ml")

let test_c1_waived () =
  check "binding-level waiver suppresses C1" []
    (lint ~as_path:"lib/misc/c1_waived.ml" "c1_waived.ml")

let test_c1_allowlisted () =
  check "the registry allowlist exempts the same code" []
    (lint ~as_path:"lib/obs/registry.ml" "c1_toplevel.ml")

(* {2 C2: Domain.spawn / wall-clock discipline} *)

let test_c2_positive () =
  check "gettimeofday and Domain.spawn flagged in ordinary lib code"
    [ "4:13 C2"; "7:10 C2" ]
    (lint ~as_path:"lib/misc/c2_effects.ml" "c2_effects.ml")

let test_c2_sweep () =
  check "Cac.Sweep may spawn domains but still may not read the clock"
    [ "4:13 C2" ]
    (lint ~as_path:"lib/cac/sweep.ml" "c2_effects.ml")

let test_c2_clock () =
  check "Obs.Clock may read the clock but still may not spawn domains"
    [ "7:10 C2" ]
    (lint ~as_path:"lib/obs/clock.ml" "c2_effects.ml")

(* {2 H1: hygiene} *)

let test_h1_positive () =
  check "Printf.printf and print_endline flagged in library code"
    [ "3:17 H1"; "4:13 H1" ]
    (lint ~as_path:"lib/misc/h1_printf.ml" "h1_printf.ml")

let test_h1_sink () =
  check "Obs.Sink is the sanctioned printer" []
    (lint ~as_path:"lib/obs/sink.ml" "h1_printf.ml")

let test_h1_bin () =
  check "executables may print; H1 is library-only" []
    (lint ~as_path:"bin/h1_printf.ml" "h1_printf.ml")

let test_h1_mli_pairing () =
  let report = Lint_driver.run ~cfg [ fixture "tree" ] in
  Alcotest.(check int) "both modules scanned" 2 report.Lint_driver.files_scanned;
  check "exactly the .mli-less module is flagged"
    [
      Filename.concat fixture_root "tree/lib/pairing/missing_mli.ml"
      ^ ":1:0 H1 missing interface missing_mli.mli for library module";
    ]
    (List.map Lint_finding.to_string report.Lint_driver.findings)

(* {2 Clean file and parse failure} *)

let test_clean () =
  check "representative clean kernel code produces zero findings" []
    (lint ~as_path:"lib/core/clean.ml" "clean.ml")

let test_syntax_error () =
  match lint ~as_path:"lib/misc/syntax_error.ml" "syntax_error.ml" with
  | [ one ] ->
      Alcotest.(check bool)
        "parse failure is a P0 finding, not a crash" true
        (String.length one >= 2
        && String.sub one (String.length one - 2) 2 = "P0")
  | fs ->
      Alcotest.failf "expected exactly one P0 finding, got %d: %s"
        (List.length fs) (String.concat "; " fs)

(* {2 Config: parsing and path matching} *)

let test_config_parse () =
  let c =
    Lint_config.of_string
      "# policy\nfloat-field lo\nexclude vendor\nkernel-path lib/fast\n"
  in
  Alcotest.(check bool) "float-field appended" true
    (List.mem "lo" c.Lint_config.float_fields);
  Alcotest.(check bool) "exclude appended after defaults" true
    (Lint_config.excluded c "vendor/dep.ml");
  Alcotest.(check bool) "kernel-path extends the built-in kernel set" true
    (Lint_config.kernel c "lib/fast/kernel.ml"
    && Lint_config.kernel c "lib/core/cts.ml");
  (match Lint_config.of_string "no-such-directive x\n" with
  | _ -> Alcotest.fail "unknown directive accepted"
  | exception Failure msg ->
      Alcotest.(check bool) "error carries the line number" true
        (String.length msg > 0 && msg.[String.length msg - 1] <> '\n'));
  match Lint_config.of_string "exclude\n" with
  | _ -> Alcotest.fail "valueless directive accepted"
  | exception Failure _ -> ()

let has_sub sub s =
  let ls = String.length s and lu = String.length sub in
  let rec go i = i + lu <= ls && (String.sub s i lu = sub || go (i + 1)) in
  lu = 0 || go 0

let test_path_matching () =
  let m = Lint_config.matches in
  Alcotest.(check bool) "direct prefix" true (m "lib/core/cts.ml" "lib/core");
  Alcotest.(check bool) "infix under a fixture tree" true
    (m "test/fixtures/lint/lib/core/bad.ml" "lib/core");
  Alcotest.(check bool) "components must match exactly" false
    (m "lib/core_ext/cts.ml" "lib/core");
  Alcotest.(check bool) "sequence must be contiguous" false
    (m "lib/misc/core/x.ml" "lib/core");
  Alcotest.(check bool) "./ and duplicate slashes are normalized" true
    (m "./lib//core/cts.ml" "lib/core")

let test_normalize () =
  let n = Lint_config.normalize in
  let c = Alcotest.(check (list string)) in
  c "trailing slash dropped" [ "lib"; "core" ] (n "lib/core/");
  c "doubled separator collapsed" [ "lib"; "core" ] (n "lib//core");
  c "leading ./ stripped" [ "lib" ] (n "./lib");
  c "dot segments vanish" [ "lib"; "core" ] (n "lib/./core");
  c "degenerate patterns normalize to nothing" [] (n "/");
  c "bare dot too" [] (n ".");
  match Lint_config.of_string "# policy\nexclude /\n" with
  | _ -> Alcotest.fail "pattern that can never match was accepted"
  | exception Failure msg ->
      Alcotest.(check bool) "rejection says why, with the line number" true
        (has_sub "normalizes to nothing" msg && has_sub "line 2" msg)

(* {2 F1 / L1 / E1: flow rules over the typed fixture set} *)

let flow ~as_path name =
  Lint_driver.flow_file ~cfg ~as_path (fixture (Filename.concat "typed" name))
  |> List.map (fun f ->
         Printf.sprintf "%d:%d %s" f.Lint_finding.line f.Lint_finding.col
           f.Lint_finding.rule)

let test_f1_positive () =
  check "NaN sources reaching registry and HTTP sinks are flagged"
    [ "4:2 F1"; "8:2 F1" ]
    (flow ~as_path:"lib/misc/f1_nan_flow.ml" "f1_nan_flow.ml")

let test_f1_guarded () =
  check "guard test, Guard.finite, assert, rebind and waiver all pass" []
    (flow ~as_path:"lib/misc/f1_guarded.ml" "f1_guarded.ml")

let test_l1_positive () =
  check
    "blocking under the lock (direct and through a wrapper closure) and a \
     spawn mutating bare toplevel state"
    [ "11:14 L1"; "13:15 L1"; "15:17 L1" ]
    (flow ~as_path:"lib/misc/l1_lock.ml" "l1_lock.ml")

let test_l1_read_exact () =
  check "a framed read under the lock blocks like a line read" [ "1:12 L1" ]
    (flow ~as_path:"lib/misc/l1_read_exact.ml" "l1_read_exact.ml")

let test_l1_negative () =
  check "pure critical sections, Atomic state and waivers stay quiet" []
    (flow ~as_path:"lib/misc/l1_negative.ml" "l1_negative.ml")

let test_e1_positive () =
  check "route handlers and spawned tasks that can raise uncaught"
    [ "8:22 E1"; "10:20 E1" ]
    (flow ~as_path:"lib/misc/e1_escape.ml" "e1_escape.ml")

let test_e1_chain () =
  let msgs =
    Lint_driver.flow_file ~cfg ~as_path:"lib/misc/e1_escape.ml"
      (fixture "typed/e1_escape.ml")
    |> List.map (fun f -> f.Lint_finding.msg)
  in
  Alcotest.(check bool) "the handler finding spells out the call chain" true
    (List.exists
       (fun m -> has_sub "via" m && has_sub "parse_class" m)
       msgs)

let test_e1_guarded () =
  check "local try, a Guard.protect fence and a waiver keep E1 quiet" []
    (flow ~as_path:"lib/misc/e1_guarded.ml" "e1_guarded.ml")

(* {2 Typed backend: .cmt loading and precision}

   The suite cannot assume a dune build of itself, so it makes its own
   typedtrees: write a module to a scratch directory, compile it with
   [ocamlc -bin-annot] (artifacts land beside the source, and
   [cmt_sourcefile] records the absolute path we scan by) and point
   the loader's [build_root] at the directory.  [-I <dir>/lib] lets a
   scratch program's other units find its library. *)

let temp_dir () =
  let stamp = Filename.temp_file "ctslint_typed" ".d" in
  Sys.remove stamp;
  if Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote stamp)) <> 0
  then Alcotest.fail "cannot create scratch directory";
  stamp

let write_module dir name src =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  path

let compile_with_cmt dir name src =
  let path = write_module dir name src in
  let cmd =
    Printf.sprintf "ocamlc -bin-annot -I %s -c %s 2>/dev/null"
      (Filename.quote (Filename.concat dir "lib"))
      (Filename.quote path)
  in
  if Sys.command cmd <> 0 then Alcotest.failf "ocamlc failed on %s" name;
  path

let test_typed_precision () =
  let dir = temp_dir () in
  let path = compile_with_cmt dir "precision.ml" "let eq (a : float) b = a = b\n" in
  let syntactic = Lint_driver.run ~cfg [ path ] in
  Alcotest.(check int) "no literal in sight: the syntactic backend is blind" 0
    (List.length syntactic.Lint_driver.findings);
  let typed =
    Lint_driver.run ~backend:Lint_driver.Typed ~build_root:dir ~cfg [ path ]
  in
  match typed.Lint_driver.findings with
  | [ f ] ->
      Alcotest.(check string) "the typedtree knows (=) compares floats" "N1"
        f.Lint_finding.rule
  | fs ->
      Alcotest.failf "expected exactly one typed finding, got %d"
        (List.length fs)

let test_typed_missing_cmt () =
  let dir = temp_dir () in
  let path = write_module dir "orphan.ml" "let x = 1\n" in
  let report =
    Lint_driver.run ~backend:Lint_driver.Typed ~build_root:dir ~cfg [ path ]
  in
  match report.Lint_driver.findings with
  | [ f ] ->
      Alcotest.(check string) "a missing .cmt is a T0 finding, not silence"
        "T0" f.Lint_finding.rule
  | fs ->
      Alcotest.failf "expected exactly one T0 finding, got %d"
        (List.length fs)

(* {2 U1: exports no other unit uses}

   A three-unit program in the repo's layout: a [lib/] interface, a
   [bin/] caller that reaches it through a module alias, and a [test/]
   caller.  U1 must flag the export nobody calls and the one only the
   test calls, at their [val]s, and nothing else. *)

let mkdirs dir subs =
  List.iter
    (fun sub ->
      let d = Filename.concat dir sub in
      if Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote d)) <> 0
      then Alcotest.fail "cannot create scratch layout")
    subs

let compile_lines dir rel lines =
  ignore (compile_with_cmt dir rel (String.concat "\n" lines ^ "\n"))

let u1_program () =
  let dir = temp_dir () in
  mkdirs dir [ "lib"; "bin"; "test" ];
  compile_lines dir "lib/u.mli"
    [
      "val used : int -> int";
      "val unused : int";
      "val test_only : unit -> string";
      "val waived : float";
      "[@@lint.allow \"U1\"]";
      "module M : sig";
      "  val f : int -> int";
      "end";
    ];
  compile_lines dir "lib/u.ml"
    [
      "let used x = x + 1";
      "let unused = 0";
      "let test_only () = \"t\"";
      "let waived = 1.0";
      "module M = struct";
      "  let f x = x * 2";
      "end";
    ];
  compile_lines dir "bin/b.ml"
    [ "module A = U"; "let () = print_int (A.used (A.M.f 1))" ];
  compile_lines dir "test/t.ml"
    [ "let () = print_string (U.test_only ()); print_float U.waived" ];
  dir

let positions findings =
  List.map
    (fun f ->
      Printf.sprintf "%s %d:%d %s"
        (Filename.basename f.Lint_finding.file)
        f.Lint_finding.line f.Lint_finding.col f.Lint_finding.rule)
    findings

let test_u1_golden () =
  let dir = u1_program () in
  let report =
    Lint_driver.run ~backend:Lint_driver.Typed ~build_root:dir ~cfg
      [ Filename.concat dir "lib"; Filename.concat dir "bin" ]
  in
  check "U1 at the val of the uncalled and of the test-only export"
    [ "u.mli 2:0 U1"; "u.mli 3:0 U1" ]
    (positions report.Lint_driver.findings);
  (match report.Lint_driver.findings with
  | [ unused; test_only ] ->
      Alcotest.(check bool) "names the uncalled export" true
        (has_sub "U.unused" unused.Lint_finding.msg);
      Alcotest.(check bool) "says the other is test-only" true
        (has_sub "U.test_only" test_only.Lint_finding.msg
        && has_sub "test/" test_only.Lint_finding.msg)
  | _ -> ());
  match Obs.Json.member "counts" (Lint_driver.report_to_json report) with
  | Some counts ->
      Alcotest.(check bool) "the JSON report counts two U1 findings" true
        (Obs.Json.member "U1" counts = Some (Obs.Json.Int 2))
  | None -> Alcotest.fail "the JSON report has no counts"

let test_u1_missing_cmti () =
  let dir = temp_dir () in
  mkdirs dir [ "lib" ];
  (* Compiled without -bin-annot: a .cmi and no .cmti. *)
  let mli = write_module dir "lib/v.mli" "val x : int\n" in
  let cmd = Printf.sprintf "ocamlc -c %s 2>/dev/null" (Filename.quote mli) in
  if Sys.command cmd <> 0 then Alcotest.fail "ocamlc failed on lib/v.mli";
  compile_lines dir "lib/v.ml" [ "let x = 1" ];
  let report =
    Lint_driver.run ~backend:Lint_driver.Typed ~build_root:dir ~cfg
      [ Filename.concat dir "lib" ]
  in
  check "an interface with no .cmti is a T0 finding, not silence"
    [ "v.mli 1:0 T0" ]
    (positions report.Lint_driver.findings)

(* {2 SARIF export} *)

let test_sarif_shape () =
  let findings =
    Lint_driver.flow_file ~cfg ~as_path:"lib/misc/f1_nan_flow.ml"
      (fixture "typed/f1_nan_flow.ml")
  in
  Alcotest.(check int) "fixture premise: two findings" 2 (List.length findings);
  let sarif = Lint_sarif.of_findings ~tool_version:"0-test" findings in
  Alcotest.(check bool) "serialized SARIF round-trips through the parser" true
    (Obs.Json.of_string (Lint_sarif.to_string ~tool_version:"0-test" findings)
    = Some sarif);
  let mem k j =
    match Obs.Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "SARIF object is missing %S" k
  in
  let str j = match j with Obs.Json.String s -> s | _ -> "" in
  let int_ j = match j with Obs.Json.Int i -> i | _ -> -1 in
  Alcotest.(check string) "schema version" "2.1.0" (str (mem "version" sarif));
  Alcotest.(check bool) "$schema points at sarif-2.1.0" true
    (has_sub "sarif" (str (mem "$schema" sarif)));
  let run0 =
    match mem "runs" sarif with
    | Obs.Json.List [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let driver = mem "driver" (mem "tool" run0) in
  Alcotest.(check string) "driver name" "ctslint" (str (mem "name" driver));
  Alcotest.(check string) "driver version" "0-test"
    (str (mem "version" driver));
  (match mem "rules" driver with
  | Obs.Json.List rules ->
      Alcotest.(check (list string)) "only fired rules are declared" [ "F1" ]
        (List.map (fun r -> str (mem "id" r)) rules)
  | _ -> Alcotest.fail "driver.rules is not a list");
  match mem "results" run0 with
  | Obs.Json.List (first :: _ as results) ->
      Alcotest.(check int) "one result per finding" (List.length findings)
        (List.length results);
      Alcotest.(check string) "ruleId" "F1" (str (mem "ruleId" first));
      let region =
        mem "region"
          (mem "physicalLocation"
             (match mem "locations" first with
             | Obs.Json.List [ l ] -> l
             | _ -> Alcotest.fail "expected one location"))
      in
      Alcotest.(check int) "startLine is as reported" 4
        (int_ (mem "startLine" region));
      Alcotest.(check int) "startColumn is 1-based" 3
        (int_ (mem "startColumn" region))
  | _ -> Alcotest.fail "run.results is not a non-empty list"

let suite =
  [
    Alcotest.test_case "n1 positive" `Quick test_n1_positive;
    Alcotest.test_case "n1 waived" `Quick test_n1_waived;
    Alcotest.test_case "n1 message golden" `Quick test_n1_message;
    Alcotest.test_case "n2 kernel positive" `Quick test_n2_kernel_positive;
    Alcotest.test_case "n2 outside kernel" `Quick test_n2_outside_kernel;
    Alcotest.test_case "n2 guarded/waived" `Quick test_n2_guarded;
    Alcotest.test_case "c1 positive" `Quick test_c1_positive;
    Alcotest.test_case "c1 waived" `Quick test_c1_waived;
    Alcotest.test_case "c1 allowlisted" `Quick test_c1_allowlisted;
    Alcotest.test_case "c2 positive" `Quick test_c2_positive;
    Alcotest.test_case "c2 sweep exemption" `Quick test_c2_sweep;
    Alcotest.test_case "c2 clock exemption" `Quick test_c2_clock;
    Alcotest.test_case "h1 positive" `Quick test_h1_positive;
    Alcotest.test_case "h1 sink exemption" `Quick test_h1_sink;
    Alcotest.test_case "h1 bin exemption" `Quick test_h1_bin;
    Alcotest.test_case "h1 mli pairing" `Quick test_h1_mli_pairing;
    Alcotest.test_case "clean file" `Quick test_clean;
    Alcotest.test_case "syntax error -> P0" `Quick test_syntax_error;
    Alcotest.test_case "config parsing" `Quick test_config_parse;
    Alcotest.test_case "path matching" `Quick test_path_matching;
    Alcotest.test_case "path normalization" `Quick test_normalize;
    Alcotest.test_case "f1 positive" `Quick test_f1_positive;
    Alcotest.test_case "f1 guarded/waived" `Quick test_f1_guarded;
    Alcotest.test_case "l1 positive" `Quick test_l1_positive;
    Alcotest.test_case "l1 read_exact golden" `Quick test_l1_read_exact;
    Alcotest.test_case "l1 negative/waived" `Quick test_l1_negative;
    Alcotest.test_case "e1 positive" `Quick test_e1_positive;
    Alcotest.test_case "e1 chain message" `Quick test_e1_chain;
    Alcotest.test_case "e1 guarded/waived" `Quick test_e1_guarded;
    Alcotest.test_case "typed precision" `Quick test_typed_precision;
    Alcotest.test_case "typed missing cmt -> T0" `Quick test_typed_missing_cmt;
    Alcotest.test_case "u1 golden" `Quick test_u1_golden;
    Alcotest.test_case "u1 missing cmti -> T0" `Quick test_u1_missing_cmti;
    Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
  ]
