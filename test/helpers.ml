(* Shared assertions and generators for the test suite. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual
      tol

let check_close_rel ?(tol = 1e-9) msg expected actual =
  let scale = Stdlib.max 1e-12 (Float.abs expected) in
  if Float.abs (expected -. actual) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected
      actual tol

(* Bit equality, for results that must not move at all. *)
let check_bits msg expected actual =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual)) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_true msg cond = Alcotest.(check bool) msg true cond

let check_int msg expected actual = Alcotest.(check int) msg expected actual

let rng ?(seed = 7) () = Numerics.Rng.create ~seed

(* Route experiment CSV output to a temp dir so tests don't litter. *)
let with_tmp_results f =
  let dir = Filename.temp_file "cts_results" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Unix.putenv "CTS_RESULTS_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      Unix.putenv "CTS_RESULTS_DIR" "results")
    (fun () -> f dir)

(* Register a QCheck property as an alcotest case. *)
let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Naive substring search, sufficient for test assertions. *)
let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  if nl = 0 then true
  else begin
    let rec scan i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  end
