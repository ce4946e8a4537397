(* Connection admission control: the paper's motivating application.

   A 155 Mbit/s-class ATM link must decide how many VBR video calls to
   accept while holding the cell loss rate under a target.  We compare
   the admissible-call count computed from the full LRD model Z^a with
   the count computed from its cheap DAR(p) Markov fits - the paper's
   point being that the two agree over practical buffer sizes, so the
   LRD tail can be ignored by the CAC algorithm.

   Run with: dune exec examples/admission_control.exe *)

let link_capacity_cells_per_frame = 16140.0 (* 30 x 538, ~171 Mbit/s *)

let admissible process ~buffer_msec ~target_clr =
  let vg =
    Core.Variance_growth.create ~acf:process.Traffic.Process.acf
      ~variance:process.Traffic.Process.variance
      ~tail:process.Traffic.Process.tail
  in
  let total_buffer =
    Queueing.Units.buffer_cells_of_msec ~msec:buffer_msec
      ~service_cells_per_frame:link_capacity_cells_per_frame
      ~ts:Traffic.Models.ts
  in
  Core.Admission.max_admissible vg ~mu:process.Traffic.Process.mean
    ~total_capacity:link_capacity_cells_per_frame ~total_buffer ~target_clr

let () =
  let a = 0.975 in
  let z = (Traffic.Models.z ~a).Traffic.Models.process in
  let models =
    ("Z^0.975 (LRD)", z)
    :: List.map
         (fun p ->
           (Printf.sprintf "DAR(%d) fit" p, Traffic.Models.s ~a ~p))
         [ 1; 2; 3 ]
  in
  Printf.printf
    "Admissible VBR video calls on a %.0f cells/frame link (utilisation \
     ceiling %.0f calls)\n\n"
    link_capacity_cells_per_frame
    (link_capacity_cells_per_frame /. 500.0);
  List.iter
    (fun target_clr ->
      Printf.printf "Target CLR = %.0e\n" target_clr;
      Printf.printf "  %-16s" "buffer (msec):";
      List.iter (fun b -> Printf.printf " %6g" b) [ 5.0; 10.0; 20.0; 30.0 ];
      print_newline ();
      List.iter
        (fun (name, model) ->
          Printf.printf "  %-16s" name;
          List.iter
            (fun buffer_msec ->
              Printf.printf " %6d" (admissible model ~buffer_msec ~target_clr))
            [ 5.0; 10.0; 20.0; 30.0 ];
          print_newline ())
        models;
      print_newline ())
    [ 1e-6; 1e-9 ];
  Printf.printf
    "The Markov fits admit call counts within a call or two of the full\n\
     LRD model across the practical buffer range - the paper's argument\n\
     for Markovian effective-bandwidth CAC, quantified.\n"
