let markers = "abcdefghijklmnopqrstuvwxyz"

let finite (_, y) = Float.is_finite y

(* The canvas, in characters. *)
let width = 72
let height = 20

let render ?(logx = false) ~series ~xlabel ~ylabel () =
  let all_points =
    List.concat_map (fun (_, pts) -> List.filter finite (Array.to_list pts)) series
  in
  if all_points = [] then "(no finite points to plot)\n"
  else begin
    let xs = List.map fst all_points and ys = List.map snd all_points in
    let tx x = if logx then log x else x in
    let xmin = List.fold_left Stdlib.min infinity xs in
    let xmax = List.fold_left Stdlib.max neg_infinity xs in
    let ymin = List.fold_left Stdlib.min infinity ys in
    let ymax = List.fold_left Stdlib.max neg_infinity ys in
    if logx then assert (xmin > 0.0);
    let xspan = Stdlib.max 1e-12 (tx xmax -. tx xmin) in
    let yspan = Stdlib.max 1e-12 (ymax -. ymin) in
    let canvas = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, pts) ->
        let marker = markers.[si mod String.length markers] in
        Array.iter
          (fun ((x, y) as pt) ->
            if finite pt then begin
              let col =
                int_of_float
                  (Float.round
                     ((tx x -. tx xmin) /. xspan *. float_of_int (width - 1)))
              in
              let row =
                int_of_float
                  (Float.round ((ymax -. y) /. yspan *. float_of_int (height - 1)))
              in
              canvas.(row).(col) <- marker
            end)
          pts)
      series;
    let buffer = Buffer.create (height * (width + 12)) in
    Buffer.add_string buffer
      (Printf.sprintf "%s (top %.3g, bottom %.3g)\n" ylabel ymax ymin);
    Array.iter
      (fun row ->
        Buffer.add_string buffer "  |";
        Array.iter (Buffer.add_char buffer) row;
        Buffer.add_char buffer '\n')
      canvas;
    Buffer.add_string buffer "  +";
    Buffer.add_string buffer (String.make width '-');
    Buffer.add_char buffer '\n';
    Buffer.add_string buffer
      (Printf.sprintf "   %s: %.3g .. %.3g%s\n" xlabel xmin xmax
         (if logx then " (log axis)" else ""));
    List.iteri
      (fun si (label, _) ->
        Buffer.add_string buffer
          (Printf.sprintf "   %c = %s\n"
             markers.[si mod String.length markers]
             label))
      series;
    Buffer.contents buffer
  end

let render_figure ?logx (fig : Common.figure) =
  render ?logx
    ~series:
      (List.map (fun s -> (s.Common.label, s.Common.points)) fig.Common.series)
    ~xlabel:fig.Common.xlabel ~ylabel:fig.Common.ylabel ()

let emit ?logx fig =
  Common.emit fig;
  Common.printf "%s" (render_figure ?logx fig)
