(* CTS heatmaps: the per-buffer m*_b histograms in the registry
   rendered as a 2-D grid — one row per buffer size (a label value),
   one column per histogram bin.  Renderers return strings (ASCII,
   CSV, self-contained HTML); serving them is the daemon's job. *)

type row = {
  label : string;  (* raw label value, e.g. "16140" *)
  sort : float;  (* numeric sort key parsed from [label]; nan sorts last *)
  snap : Registry.histogram_snapshot;
}

type t = {
  name : string;
  lo : float;
  hi : float;
  bins : int;
  rows : row list;  (* ascending by [sort] *)
}

let default_name = "cts.m_star"
let label_key = "buffer_cells"

let of_snapshot ?(name = default_name) (snap : Registry.snapshot) =
  let rows =
    List.filter_map
      (fun ((n, labels), h) ->
        if String.equal n name then
          match List.assoc_opt label_key (Labels.to_list labels) with
          | Some v ->
              let sort =
                match float_of_string_opt v with Some f -> f | None -> Float.nan
              in
              Some { label = v; sort; snap = h }
          | None -> None
        else None)
      snap.Registry.histograms
  in
  match rows with
  | [] -> None
  | first :: _ ->
      (* All series of one name share a bin layout (first-spec-wins in
         the registry); drop any stragglers that disagree. *)
      let bins = Array.length first.snap.Registry.counts in
      let same r =
        Array.length r.snap.Registry.counts = bins
        && Float.equal r.snap.Registry.hlo first.snap.Registry.hlo
        && Float.equal r.snap.Registry.hhi first.snap.Registry.hhi
      in
      let rows =
        List.filter same rows
        |> List.sort (fun a b ->
               match (Float.is_nan a.sort, Float.is_nan b.sort) with
               | false, false -> Float.compare a.sort b.sort
               | true, true -> String.compare a.label b.label
               | true, false -> 1
               | false, true -> -1)
      in
      Some
        {
          name;
          lo = first.snap.Registry.hlo;
          hi = first.snap.Registry.hhi;
          bins;
          rows;
        }

let bin_width t = (t.hi -. t.lo) /. float_of_int t.bins

let row_max (r : row) =
  Array.fold_left Stdlib.max 0 r.snap.Registry.counts

(* {2 ASCII} *)

let shades = " .:-=+*#%@"

let shade_char ~max_count c =
  if c = 0 || max_count = 0 then shades.[0]
  else
    let levels = String.length shades - 1 in
    (* counts 1..max map onto shades 1..levels *)
    let idx = 1 + ((c - 1) * (levels - 1) / Stdlib.max 1 (max_count - 1)) in
    shades.[Stdlib.min levels idx]

let to_ascii t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s by %s — %d bins over [%g, %g), width %g\n" t.name
       label_key t.bins t.lo t.hi (bin_width t));
  let label_w =
    List.fold_left (fun w r -> Stdlib.max w (String.length r.label)) 8 t.rows
  in
  Buffer.add_string buf
    (Printf.sprintf "%*s | %s | %s\n" label_w label_key
       (String.make t.bins '-') "n (under/over)");
  List.iter
    (fun r ->
      let m = row_max r in
      Buffer.add_string buf (Printf.sprintf "%*s | " label_w r.label);
      Array.iter
        (fun c -> Buffer.add_char buf (shade_char ~max_count:m c))
        r.snap.Registry.counts;
      Buffer.add_string buf
        (Printf.sprintf " | %d (%d/%d)\n" r.snap.Registry.count
           r.snap.Registry.underflow r.snap.Registry.overflow))
    t.rows;
  Buffer.add_string buf
    (Printf.sprintf "scale: '%c' (empty) … '%c' (row max), normalized per row\n"
       shades.[0]
       shades.[String.length shades - 1]);
  Buffer.contents buf

(* {2 CSV (long format, one line per cell)} *)

let to_csv t =
  let buf = Buffer.create 1024 in
  let w = bin_width t in
  Buffer.add_string buf (Printf.sprintf "%s,bin_lo,bin_hi,count\n" label_key);
  List.iter
    (fun r ->
      Array.iteri
        (fun i c ->
          let blo = t.lo +. (w *. float_of_int i) in
          Buffer.add_string buf
            (Printf.sprintf "%s,%g,%g,%d\n" r.label blo (blo +. w) c))
        r.snap.Registry.counts)
    t.rows;
  Buffer.contents buf

(* {2 Self-contained HTML} *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_html t =
  let buf = Buffer.create 4096 in
  let w = bin_width t in
  Buffer.add_string buf
    (Printf.sprintf
       {|<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>%s heatmap</title>
<style>
  body { font-family: ui-monospace, monospace; background: #14161a; color: #d8dce2; margin: 2rem; }
  h1 { font-size: 1.1rem; font-weight: 600; }
  p.sub { color: #8a919c; font-size: 0.85rem; }
  table { border-collapse: collapse; }
  td, th { padding: 0; }
  th { color: #8a919c; font-weight: 400; font-size: 0.75rem; padding: 0 0.5rem; text-align: right; }
  td.cell { width: 11px; height: 22px; }
  td.n { color: #8a919c; font-size: 0.75rem; padding-left: 0.6rem; }
</style>
</head>
<body>
<h1>%s by %s</h1>
<p class="sub">%d bins over [%g, %g), bin width %g; intensity normalized per row; auto-refreshes every 5&thinsp;s.</p>
<table>
|}
       (html_escape t.name) (html_escape t.name) (html_escape label_key)
       t.bins t.lo t.hi w);
  List.iter
    (fun r ->
      let m = row_max r in
      Buffer.add_string buf
        (Printf.sprintf "<tr><th>%s</th>" (html_escape r.label));
      Array.iteri
        (fun i c ->
          let intensity =
            if m = 0 then 0.0 else float_of_int c /. float_of_int m
          in
          let blo = t.lo +. (w *. float_of_int i) in
          Buffer.add_string buf
            (Printf.sprintf
               "<td class=\"cell\" style=\"background:rgba(97,175,239,%.3f)\" \
                title=\"%s=%s m*∈[%g,%g) n=%d\"></td>"
               intensity (html_escape label_key) (html_escape r.label) blo
               (blo +. w) c))
        r.snap.Registry.counts;
      Buffer.add_string buf
        (Printf.sprintf "<td class=\"n\">n=%d</td></tr>\n" r.snap.Registry.count))
    t.rows;
  Buffer.add_string buf "</table>\n</body>\n</html>\n";
  Buffer.contents buf

let row_count t = List.length t.rows
