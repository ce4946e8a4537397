open Helpers

(* The registry is process-global and other suites tick instruments
   through the modules they exercise, so every test here uses names
   under "test." that nothing else touches. *)

(* {2 Counters} *)

let test_counter_monotonic () =
  let c = Obs.Registry.Counter.v "test.obs.mono" in
  Obs.Registry.Counter.incr c;
  Obs.Registry.Counter.incr ~by:41 c;
  check_int "handle increments accumulate" 42
    (Obs.Registry.counter_value "test.obs.mono");
  (match Obs.Registry.Counter.incr ~by:(-1) c with
  | () -> Alcotest.fail "negative by accepted by handle"
  | exception Invalid_argument _ -> ());
  (match Obs.Registry.incr ~by:(-5) "test.obs.mono" with
  | () -> Alcotest.fail "negative by accepted by keyed incr"
  | exception Invalid_argument _ -> ());
  check_int "rejected updates left no trace" 42
    (Obs.Registry.counter_value "test.obs.mono")

let test_counter_labels_merge () =
  let labels = Obs.Labels.make [ ("k", "a") ] in
  let labels' = Obs.Labels.make [ ("k", "b") ] in
  Obs.Registry.incr ~labels ~by:3 "test.obs.labelled";
  Obs.Registry.incr ~labels:labels' ~by:4 "test.obs.labelled";
  check_int "label sets are distinct series" 3
    (Obs.Registry.counter_value ~labels "test.obs.labelled");
  check_int "label sets are distinct series" 4
    (Obs.Registry.counter_value ~labels:labels' "test.obs.labelled");
  check_int "unlabelled series untouched" 0
    (Obs.Registry.counter_value "test.obs.labelled")

let test_declared_zero_in_snapshot () =
  Obs.Registry.declare_counter "test.obs.declared_only";
  let snap = Obs.Registry.snapshot () in
  check_true "declared counter exports as zero"
    (List.assoc_opt ("test.obs.declared_only", Obs.Labels.empty) snap.counters
    = Some 0)

(* {2 Histogram merging across domains} *)

(* The merged view must equal a sequential run: bin-wise merging is
   associative and commutative, so totals are independent of which
   domain observed what. *)
let test_histogram_domain_merge () =
  Obs.Registry.declare_histogram ~lo:0.0 ~hi:100.0 ~bins:10
    "test.obs.sharded";
  let observe_range lo_i =
    for i = lo_i to lo_i + 49 do
      Obs.Registry.observe "test.obs.sharded"
        (float_of_int (i mod 120))
    done
  in
  let domains =
    List.map (fun k -> Domain.spawn (fun () -> observe_range (50 * k))) [ 1; 2; 3 ]
  in
  observe_range 0;
  List.iter Domain.join domains;
  match Obs.Registry.histogram_snapshot "test.obs.sharded" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some merged ->
      check_int "every observation counted" 200 merged.count;
      (* Sequential reference on a plain Stats histogram. *)
      let ref_h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:10 in
      let ref_sum = ref 0.0 in
      List.iter
        (fun lo_i ->
          for i = lo_i to lo_i + 49 do
            let x = float_of_int (i mod 120) in
            Stats.Histogram.add ref_h x;
            ref_sum := !ref_sum +. x
          done)
        [ 50; 100; 150; 0 ];
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "bin %d matches sequential run" i) c
            merged.counts.(i))
        (Stats.Histogram.counts ref_h);
      check_int "overflow matches" (Stats.Histogram.overflow ref_h)
        merged.overflow;
      check_close ~tol:1e-6 "sum matches" !ref_sum merged.sum

let test_stats_merge_associative () =
  let mk obs =
    let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
    List.iter (Stats.Histogram.add h) obs;
    h
  in
  let a () = mk [ 0.5; 3.0; 9.9 ]
  and b () = mk [ -1.0; 4.2; 4.3 ]
  and c () = mk [ 11.0; 0.1 ] in
  let left = Stats.Histogram.merge (Stats.Histogram.merge (a ()) (b ())) (c ())
  and right =
    Stats.Histogram.merge (a ()) (Stats.Histogram.merge (b ()) (c ()))
  in
  check_true "merge associative (bin counts)"
    (Stats.Histogram.counts left = Stats.Histogram.counts right);
  check_int "merge associative (underflow)"
    (Stats.Histogram.underflow left)
    (Stats.Histogram.underflow right);
  check_int "merge associative (overflow)"
    (Stats.Histogram.overflow left)
    (Stats.Histogram.overflow right)

let test_handle_shared_across_domains () =
  (* One module-style handle used by four domains: each domain updates
     its own shard's cell, so nothing is lost in the merge. *)
  let c = Obs.Registry.Counter.v "test.obs.shared_handle" in
  let h =
    Obs.Registry.Histogram.v ~lo:0.0 ~hi:10.0 ~bins:5 "test.obs.shared_hist"
  in
  let work () =
    for i = 1 to 500 do
      Obs.Registry.Counter.incr c;
      Obs.Registry.Histogram.observe h (float_of_int (i mod 10))
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  check_int "no increment lost across domains" 2000
    (Obs.Registry.counter_value "test.obs.shared_handle");
  match Obs.Registry.histogram_snapshot "test.obs.shared_hist" with
  | Some s -> check_int "no observation lost across domains" 2000 s.count
  | None -> Alcotest.fail "shared histogram missing"

(* {2 Spans} *)

let test_span_nesting () =
  check_int "no open span initially" 0 (Obs.Span.current_depth ());
  let seen = ref [] in
  Obs.Span.with_ ~name:"test.outer" (fun () ->
      seen := (Obs.Span.current_depth (), Obs.Span.current_name ()) :: !seen;
      Obs.Span.with_ ~name:"test.inner" (fun () ->
          seen := (Obs.Span.current_depth (), Obs.Span.current_name ()) :: !seen));
  check_int "stack drained" 0 (Obs.Span.current_depth ());
  match !seen with
  | [ (2, Some "test.inner"); (1, Some "test.outer") ] -> ()
  | _ -> Alcotest.fail "span stack did not nest as outer > inner"

let test_span_exception_closes () =
  (match
     Obs.Span.with_ ~name:"test.raising" (fun () -> failwith "boom")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_int "span closed on exception" 0 (Obs.Span.current_depth ())

let with_temp_jsonl f =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      f (Obs.Sink.Channel oc);
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          List.rev !lines))

let test_span_trace_events () =
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Fun.protect
          ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
          (fun () ->
            Obs.Span.with_ ~name:"test.traced_outer" (fun () ->
                Obs.Span.with_ ~name:"test.traced_inner" ignore)))
  in
  check_int "one event per span" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Obs.Json.of_string line with
        | Some j -> j
        | None -> Alcotest.failf "unparseable trace line: %s" line)
      lines
  in
  let field name j =
    match Obs.Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "trace event missing %S" name
  in
  (* Inner completes first; its parent id is the outer's id. *)
  match parsed with
  | [ inner; outer ] ->
      check_true "inner named" (field "name" inner = String "test.traced_inner");
      check_true "outer named" (field "name" outer = String "test.traced_outer");
      check_true "outer is a root span" (field "parent" outer = Null);
      check_true "inner's parent is outer"
        (field "parent" inner = field "id" outer);
      check_true "depths recorded"
        (field "depth" inner = Int 1 && field "depth" outer = Int 0);
      check_true "both spans ok"
        (field "ok" inner = Bool true && field "ok" outer = Bool true)
  | _ -> Alcotest.fail "expected exactly two parsed events"

(* {2 Trace sampling} *)

(* Run [spans] completions of [name] under [policy] with a file trace
   sink installed; returns how many trace lines were emitted. *)
let emitted_under policy ~name ~spans =
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Obs.Span.set_sampling policy;
        Fun.protect
          ~finally:(fun () ->
            Obs.Span.set_trace_sink Obs.Sink.Null;
            Obs.Span.reset_sampling ())
          (fun () ->
            for _ = 1 to spans do
              Obs.Span.with_ ~name ignore
            done))
  in
  List.length lines

let test_span_sampling_one_in () =
  let dropped_before = Obs.Registry.counter_value "obs.span.sampled_out" in
  check_int "1-in-3 over 9 completions" 3
    (emitted_under (Obs.Span.One_in 3) ~name:"test.sampled_one_in" ~spans:9);
  check_int "six completions dropped" (dropped_before + 6)
    (Obs.Registry.counter_value "obs.span.sampled_out")

let test_span_sampling_reset_and_no_sink () =
  (* spans with no sink installed never consult the sampler *)
  let before = Obs.Registry.counter_value "obs.span.sampled_out" in
  Obs.Span.set_sampling (Obs.Span.One_in 2);
  Fun.protect
    ~finally:(fun () -> Obs.Span.reset_sampling ())
    (fun () ->
      for _ = 1 to 8 do
        Obs.Span.with_ ~name:"test.no_sink" ignore
      done);
  check_int "no sink: sampler never consulted" before
    (Obs.Registry.counter_value "obs.span.sampled_out");
  (* after the reset above, every completion reaches the sink *)
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Fun.protect
          ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
          (fun () ->
            for _ = 1 to 7 do
              Obs.Span.with_ ~name:"test.after_reset" ignore
            done))
  in
  check_int "reset restores emit-everything" 7 (List.length lines)

let test_span_sampling_validation () =
  let rejected policy =
    match Obs.Span.set_sampling policy with
    | exception Invalid_argument _ -> ()
    | () ->
        Obs.Span.reset_sampling ();
        Alcotest.fail "invalid sampling policy accepted"
  in
  rejected (Obs.Span.One_in 0);
  rejected (Obs.Span.One_in (-1))

(* {2 Trace context} *)

let test_trace_parse_roundtrip () =
  let tp = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01" in
  (match Obs.Trace.parse_traceparent tp with
  | Some ctx ->
      check_true "trace id extracted"
        (ctx.Obs.Trace.trace_id = "0123456789abcdef0123456789abcdef");
      check_true "span id extracted"
        (ctx.Obs.Trace.span_id = "00f067aa0ba902b7");
      check_true "renders back to the same header"
        (Obs.Trace.to_traceparent ctx = tp)
  | None -> Alcotest.fail "valid traceparent rejected");
  check_true "surrounding whitespace tolerated"
    (Obs.Trace.parse_traceparent ("  " ^ tp ^ " ") <> None);
  check_true "future version with trailing fields accepted"
    (Obs.Trace.parse_traceparent
       "cc-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-extra"
    <> None);
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "rejects %S" s)
        (Obs.Trace.parse_traceparent s = None))
    [
      "";
      "garbage";
      (* short trace id *)
      "00-0123-00f067aa0ba902b7-01";
      (* all-zero ids are invalid on the wire *)
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01";
      "00-0123456789abcdef0123456789abcdef-0000000000000000-01";
      (* version ff is reserved-invalid *)
      "ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01";
      (* hex must be lowercase *)
      "00-0123456789ABCDEF0123456789abcdef-00f067aa0ba902b7-01";
      (* version 00 admits no trailing fields *)
      "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-extra";
      (* misplaced separator *)
      "00_0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01";
    ]

let test_trace_generate () =
  let all_hex s =
    String.for_all
      (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
      s
  in
  let a = Obs.Trace.generate () and b = Obs.Trace.generate () in
  check_int "trace id width" 32 (String.length a.Obs.Trace.trace_id);
  check_int "span id width" 16 (String.length a.Obs.Trace.span_id);
  check_true "lowercase hex only"
    (all_hex a.Obs.Trace.trace_id && all_hex a.Obs.Trace.span_id);
  check_true "never all-zero"
    (String.exists (fun c -> c <> '0') a.Obs.Trace.trace_id);
  check_true "consecutive ids differ"
    (a.Obs.Trace.trace_id <> b.Obs.Trace.trace_id);
  check_true "generated context round-trips through the header"
    (Obs.Trace.parse_traceparent (Obs.Trace.to_traceparent a) = Some a)

let test_trace_context_scoping () =
  check_true "no ambient context" (Obs.Trace.current () = None);
  let ctx = Obs.Trace.generate () in
  check_true "context visible inside with_context"
    (Obs.Trace.with_context ctx (fun () -> Obs.Trace.current ()) = Some ctx);
  check_true "restored after" (Obs.Trace.current () = None);
  (match Obs.Trace.with_context ctx (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_true "restored on exception" (Obs.Trace.current () = None);
  check_true "current_trace_id matches"
    (Obs.Trace.with_context ctx Obs.Trace.current_trace_id
    = Some ctx.Obs.Trace.trace_id)

(* The context is Domain-local: a worker domain neither sees the
   parent's context nor leaks its own back — the property the serving
   pool relies on to keep concurrent requests' traces separate. *)
let test_trace_domain_isolation () =
  let ctx = Obs.Trace.generate () in
  Obs.Trace.with_context ctx (fun () ->
      let child_saw =
        Domain.join (Domain.spawn (fun () -> Obs.Trace.current ()))
      in
      check_true "fresh domain starts without a context" (child_saw = None);
      let child_ctx = Obs.Trace.generate () in
      Domain.join
        (Domain.spawn (fun () ->
             Obs.Trace.with_context child_ctx (fun () ->
                 check_true "child sees its own context"
                   (Obs.Trace.current () = Some child_ctx))));
      check_true "child's context never leaks to the parent"
        (Obs.Trace.current () = Some ctx))

let test_span_event_trace_field () =
  let ctx = Obs.Trace.generate () in
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Fun.protect
          ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
          (fun () ->
            Obs.Span.with_ ~name:"test.untraced_span" ignore;
            Obs.Trace.with_context ctx (fun () ->
                Obs.Span.with_ ~name:"test.traced_span" ignore)))
  in
  match List.filter_map Obs.Json.of_string lines with
  | [ untraced; traced ] ->
      check_true "untraced span has a null trace field"
        (Obs.Json.member "trace" untraced = Some Null);
      check_true "traced span carries the trace id"
        (Obs.Json.member "trace" traced
        = Some (String ctx.Obs.Trace.trace_id))
  | parsed -> Alcotest.failf "expected two events, got %d" (List.length parsed)

(* {2 Exemplars} *)

let test_exemplar_stamping () =
  Obs.Registry.declare_histogram ~lo:0.0 ~hi:10.0 ~bins:5 "test.obs.exemplar";
  Obs.Registry.observe "test.obs.exemplar" 1.0;
  (match Obs.Registry.histogram_snapshot "test.obs.exemplar" with
  | Some s ->
      check_true "untraced observations leave no exemplar" (s.exemplar = None)
  | None -> Alcotest.fail "histogram missing");
  let ctx = Obs.Trace.generate () in
  Obs.Trace.with_context ctx (fun () ->
      Obs.Registry.observe "test.obs.exemplar" 4.5);
  match Obs.Registry.histogram_snapshot "test.obs.exemplar" with
  | None -> Alcotest.fail "histogram missing"
  | Some s -> (
      match s.exemplar with
      | None -> Alcotest.fail "traced observation left no exemplar"
      | Some e ->
          check_true "exemplar carries the trace id"
            (e.Obs.Registry.ex_trace = ctx.Obs.Trace.trace_id);
          check_close "exemplar keeps the observed value" 4.5
            e.Obs.Registry.ex_value;
          check_true "exemplar is wall-stamped" (e.Obs.Registry.ex_wall > 0.0))

let test_prometheus_exemplar () =
  (* Hand-built snapshot: the exemplar must render OpenMetrics-style
     on the +Inf bucket only. *)
  let snap =
    {
      Obs.Registry.counters = [];
      gauges = [];
      histograms =
        [
          ( ("test.ex.us", Obs.Labels.empty),
            {
              Obs.Registry.hlo = 0.0;
              hhi = 10.0;
              counts = [| 1 |];
              underflow = 0;
              overflow = 0;
              sum = 2.0;
              count = 1;
              exemplar =
                Some
                  {
                    Obs.Registry.ex_trace = "4bf92f3577b34da6";
                    ex_value = 2.0;
                    ex_wall = 1.5;
                  };
            } );
        ];
    }
  in
  let out = Obs.Export.prometheus snap in
  check_true "+Inf bucket carries the exemplar"
    (contains_substring out
       "test_ex_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"4bf92f3577b34da6\"} 2 1.5");
  check_true "finite buckets stay exemplar-free"
    (contains_substring out "test_ex_us_bucket{le=\"10\"} 1\n")

(* {2 Runtime gauges} *)

let runtime_gauges =
  [
    "runtime.gc.minor_collections";
    "runtime.gc.major_collections";
    "runtime.gc.compactions";
    "runtime.gc.minor_words";
    "runtime.gc.promoted_words";
    "runtime.gc.major_words";
    "runtime.heap_words";
    "runtime.top_heap_words";
  ]

let gauge (snap : Obs.Registry.snapshot) name =
  match List.assoc_opt (name, Obs.Labels.empty) snap.gauges with
  | Some v -> v
  | None -> Alcotest.failf "%s gauge missing from the snapshot" name

let test_runtime_read_monotonic () =
  let a = Obs.Registry.snapshot () in
  (* allocate enough boxed values to move the GC counters *)
  let junk = ref [] in
  for i = 1 to 10_000 do
    junk := string_of_int i :: !junk
  done;
  Gc.minor ();
  check_true "allocation kept" (List.length !junk = 10_000);
  let b = Obs.Registry.snapshot () in
  let grew name = gauge b name > gauge a name
  and kept name = gauge b name >= gauge a name in
  check_true "minor_words grows with allocation" (grew "runtime.gc.minor_words");
  check_true "minor_collections never decreases"
    (kept "runtime.gc.minor_collections");
  check_true "major_words never decreases" (kept "runtime.gc.major_words");
  check_true "heap is non-empty" (gauge b "runtime.heap_words" > 0.0);
  check_true "high-water mark bounds the heap"
    (gauge b "runtime.top_heap_words" >= gauge b "runtime.heap_words")

(* Nothing stores the GC figures: every snapshot polls them, so a
   snapshot taken on any domain carries each gauge exactly once
   (never summed across shards) and never the unflushed zero heap. *)
let test_runtime_snapshot_gauges () =
  let from_worker = Domain.join (Domain.spawn Obs.Registry.snapshot) in
  List.iter
    (fun (where, (snap : Obs.Registry.snapshot)) ->
      List.iter
        (fun name ->
          check_int
            (Printf.sprintf "%s exported once (%s)" name where)
            1
            (List.length
               (List.filter (fun ((n, _), _) -> n = name) snap.gauges)))
        runtime_gauges;
      check_true
        (Printf.sprintf "heap is never zero (%s)" where)
        (gauge snap "runtime.heap_words" > 0.0))
    [ ("worker domain", from_worker); ("main domain", Obs.Registry.snapshot ()) ]

(* {2 Heatmaps} *)

(* Seed two labelled series of a private histogram name and check every
   renderer against the known layout: 5 bins over [0, 50). *)
(* Lazy: the registry is global and cumulative, so the three renderer
   tests must share one seeding pass. *)
let seeded_heatmap =
  lazy
    (Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:50.0 ~bins:5 "test.heat";
     let observe cells xs =
       let labels = Obs.Labels.make [ ("buffer_cells", cells) ] in
       List.iter (Obs.Registry.observe ~labels "test.heat") xs
     in
     observe "2000" [ 25.0; 35.0; 45.0; 60.0 ] (* 60 overflows *);
     observe "100" [ 5.0; 5.0; 5.0; 15.0 ];
     match
       Obs.Heatmap.of_snapshot ~name:"test.heat" (Obs.Registry.snapshot ())
     with
     | Some hm -> hm
     | None -> Alcotest.fail "seeded heatmap missing from snapshot")

let seed_heatmap () = Lazy.force seeded_heatmap

let index_of hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else scan (i + 1)
  in
  scan 0

let test_heatmap_ascii () =
  let hm = seed_heatmap () in
  check_int "one row per buffer size" 2 (Obs.Heatmap.row_count hm);
  let ascii = Obs.Heatmap.to_ascii hm in
  check_true "header names metric, key and layout"
    (contains_substring ascii
       "test.heat by buffer_cells — 5 bins over [0, 50), width 10");
  (match (index_of ascii "     100 | ", index_of ascii "    2000 | ") with
  | Some small, Some large ->
      check_true "rows sorted numerically, not lexically" (small < large)
  | _ -> Alcotest.fail "expected one grid row per label");
  check_true "row totals with under/overflow"
    (contains_substring ascii "4 (0/1)");
  check_true "scale legend present" (contains_substring ascii "row max")

let test_heatmap_csv () =
  let hm = seed_heatmap () in
  let expected =
    String.concat "\n"
      [
        "buffer_cells,bin_lo,bin_hi,count";
        "100,0,10,3";
        "100,10,20,1";
        "100,20,30,0";
        "100,30,40,0";
        "100,40,50,0";
        "2000,0,10,0";
        "2000,10,20,0";
        "2000,20,30,1";
        "2000,30,40,1";
        "2000,40,50,1";
        "";
      ]
  in
  Alcotest.(check string) "csv long-format golden" expected
    (Obs.Heatmap.to_csv hm)

let test_heatmap_html () =
  let hm = seed_heatmap () in
  let html = Obs.Heatmap.to_html hm in
  check_true "self-contained document"
    (contains_substring html "<!DOCTYPE html>");
  check_true "auto-refresh wired"
    (contains_substring html "http-equiv=\"refresh\"");
  check_true "rows labelled" (contains_substring html "<th>2000</th>");
  check_true "full cells are opaque"
    (contains_substring html "rgba(97,175,239,1.000)");
  check_true "empty cells are transparent"
    (contains_substring html "rgba(97,175,239,0.000)")

(* {2 JSON round-trip} *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "with \"quotes\" and \\ and \n newline");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5e-3);
        ("b", Obs.Json.Bool false);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 0.25 ]);
        ("o", Obs.Json.Obj [ ("nested", Obs.Json.Bool true) ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Some parsed -> check_true "round-trips structurally" (parsed = doc)
  | None -> Alcotest.fail "encoder output did not parse"

(* The reference for the encoder's float rule, spelled with [Printf]:
   [%.12g] if that reads back as [x], else [%.17g]; non-finite is null.
   Journal and snapshot bytes depend on it, so the encoder must match it
   byte for byte. *)
let printf_float_json x =
  if not (Float.is_finite x) then "null"
  else
    let short = Printf.sprintf "%.12g" x in
    if Float.equal (float_of_string short) x then short
    else Printf.sprintf "%.17g" x

let test_json_float_bytes () =
  let rng = Random.State.make [| 1996 |] in
  let checked = ref 0 in
  let check x =
    incr checked;
    let got = Obs.Json.to_string (Obs.Json.Float x) in
    let want = printf_float_json x in
    if not (String.equal got want) then
      Alcotest.failf "%h (%Ld): encoder %S, Printf rule %S" x
        (Int64.bits_of_float x) got want
  in
  List.iter check
    [ 0.0; -0.0; 0.1 +. 0.2; 1.0 /. 3.0; max_float; -.max_float; min_float;
      Float.epsilon; 4.9e-324; -4.9e-324; Float.pred min_float; 1e12; -1e12;
      nan; infinity; neg_infinity ];
  Alcotest.(check string) "1/3 takes 17 digits" "0.33333333333333331"
    (Obs.Json.to_string (Obs.Json.Float (1.0 /. 3.0)));
  Alcotest.(check string) "0.1 + 0.2" "0.30000000000000004"
    (Obs.Json.to_string (Obs.Json.Float (0.1 +. 0.2)));
  (* Powers of ten across the whole range, and their neighbours. *)
  for e = -323 to 308 do
    let p = float_of_string ("1e" ^ string_of_int e) in
    List.iter check [ p; -.p; Float.succ p; Float.pred p ]
  done;
  (* Integers on both sides of 1e12, where %.12g stops being exact. *)
  for i = -2000 to 2000 do
    check (1e12 +. float_of_int i);
    check (-1e12 -. float_of_int i);
    check (float_of_int i)
  done;
  for _ = 1 to 100_000 do
    check (Float.of_int (Random.State.int rng 0x3FFFFFFF - 0x1FFFFFFF));
    check (Float.round (Random.State.float rng 1e15))
  done;
  (* Random 64-bit patterns: every exponent, subnormals and NaNs. *)
  for _ = 1 to 600_000 do
    check (Int64.float_of_bits (Random.State.bits64 rng))
  done;
  (* Uniform values, as the daemon's latencies and rates are. *)
  for _ = 1 to 200_000 do
    check (Random.State.float rng 1000.0)
  done;
  check_true "at least a million doubles" (!checked >= 1_000_000)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "rejects %S" s)
        (Obs.Json.of_string s = None))
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

let test_jsonl_concurrent_lines () =
  (* Worker domains share one sink (Cac.Sweep's trace, the serving
     pool's access log); every JSON line must stay one parseable
     line. *)
  let per_domain = 20_000 in
  let ready = Atomic.make 0 in
  let lines =
    with_temp_jsonl (fun sink ->
        let work () =
          (* Start together, so the writes overlap. *)
          Atomic.incr ready;
          while Atomic.get ready < 3 do Domain.cpu_relax () done;
          for i = 1 to per_domain do
            Obs.Sink.message sink
              (Obs.Json.to_string
                 (Obj
                    [
                      ("kind", String "span");
                      ("name", String "test.concurrent");
                      ("i", Int i);
                    ]))
          done
        in
        let domains = List.init 2 (fun _ -> Domain.spawn work) in
        work ();
        List.iter Domain.join domains)
  in
  let parsed = List.filter (fun l -> Option.is_some (Obs.Json.of_string l)) lines in
  check_int "one parseable line per event, from 3 domains" (3 * per_domain)
    (List.length parsed)

(* {2 Prometheus exposition} *)

let test_prometheus_golden () =
  (* A hand-built snapshot keeps the golden text independent of the
     global registry's contents. *)
  let labels = Obs.Labels.make [ ("link", "l0") ] in
  let snap =
    {
      Obs.Registry.counters =
        [ (("test.hits", Obs.Labels.empty), 7); (("test.hits", labels), 2) ];
      gauges = [ (("test.load", Obs.Labels.empty), 0.5) ];
      histograms =
        [
          ( ("test.lat.us", Obs.Labels.empty),
            {
              Obs.Registry.hlo = 0.0;
              hhi = 30.0;
              counts = [| 2; 1; 0 |];
              underflow = 0;
              overflow = 1;
              sum = 48.0;
              count = 4;
              exemplar = None;
            } );
        ];
    }
  in
  let expected =
    String.concat "\n"
      [
        "# TYPE test_hits_total counter";
        "test_hits_total 7";
        "test_hits_total{link=\"l0\"} 2";
        "# TYPE test_load gauge";
        "test_load 0.5";
        "# TYPE test_lat_us histogram";
        "test_lat_us_bucket{le=\"10\"} 2";
        "test_lat_us_bucket{le=\"20\"} 3";
        "test_lat_us_bucket{le=\"30\"} 3";
        "test_lat_us_bucket{le=\"+Inf\"} 4";
        "test_lat_us_sum 48";
        "test_lat_us_count 4";
        "# EOF";
        "";
      ]
  in
  Alcotest.(check string) "exposition matches" expected
    (Obs.Export.prometheus snap)

let test_export_json_keys () =
  Obs.Registry.incr ~by:5 "test.obs.export_key";
  let doc = Obs.Export.json (Obs.Registry.snapshot ()) in
  match Obs.Json.member "counters" doc with
  | Some counters ->
      check_true "counter exported under dotted name"
        (Obs.Json.member "test.obs.export_key" counters = Some (Int 5))
  | None -> Alcotest.fail "no counters object in JSON export"

let suite =
  [
    case "counter: monotonic, rejects negative" test_counter_monotonic;
    case "counter: labelled series are distinct" test_counter_labels_merge;
    case "declared counter exports as zero" test_declared_zero_in_snapshot;
    case "histogram: domain shards merge = sequential" test_histogram_domain_merge;
    case "handles shared across domains" test_handle_shared_across_domains;
    case "histogram: merge is associative" test_stats_merge_associative;
    case "span: nesting depth and names" test_span_nesting;
    case "span: closed on exception" test_span_exception_closes;
    case "span: JSON-lines trace events" test_span_trace_events;
    case "span: 1-in-N trace sampling" test_span_sampling_one_in;
    case "span: no-sink bypass and reset" test_span_sampling_reset_and_no_sink;
    case "span: sampling validation" test_span_sampling_validation;
    case "trace: traceparent parse and round-trip" test_trace_parse_roundtrip;
    case "trace: generated ids are well-formed" test_trace_generate;
    case "trace: context scoping" test_trace_context_scoping;
    case "trace: contexts are domain-local" test_trace_domain_isolation;
    case "trace: span events carry the trace id" test_span_event_trace_field;
    case "exemplar: traced observations stamp histograms"
      test_exemplar_stamping;
    case "exemplar: prometheus +Inf rendering" test_prometheus_exemplar;
    case "runtime: GC counters are monotone" test_runtime_read_monotonic;
    case "runtime: every snapshot carries the GC gauges"
      test_runtime_snapshot_gauges;
    case "heatmap: ascii grid" test_heatmap_ascii;
    case "heatmap: csv golden" test_heatmap_csv;
    case "heatmap: self-contained html" test_heatmap_html;
    case "json: encode/parse round-trip" test_json_roundtrip;
    case "json: rejects malformed input" test_json_rejects_garbage;
    case "json: float bytes match the Printf rule" test_json_float_bytes;
    case "sink: jsonl lines from concurrent domains" test_jsonl_concurrent_lines;
    case "prometheus: golden exposition" test_prometheus_golden;
    case "export: json document keys" test_export_json_keys;
  ]
