let key_string (name, labels) = name ^ Labels.to_string labels

(* {2 Prometheus text exposition}

   Dots are not legal in Prometheus metric names, so dotted registry
   names map 1:1 onto underscored exposition names.  Counters get the
   conventional [_total] suffix; histograms expose cumulative
   [_bucket{le=...}] series plus [_sum] and [_count]. *)

let prom_name name = String.map (fun c -> if c = '.' then '_' else c) name

let prom_float x =
  if Float.is_nan x then "NaN"
  else if Float.equal x infinity then "+Inf"
  else if Float.equal x neg_infinity then "-Inf"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let prom_labels ?extra labels =
  let pairs = Labels.to_list labels in
  let pairs = match extra with None -> pairs | Some kv -> pairs @ [ kv ] in
  match pairs with
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Labels.escape_value v))
             pairs)
      ^ "}"

let prometheus (snap : Registry.snapshot) =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed (name, kind)) then begin
      Hashtbl.replace typed (name, kind) ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((name, labels), v) ->
      let pname = prom_name name ^ "_total" in
      type_line pname "counter";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %d\n" pname (prom_labels labels) v))
    snap.Registry.counters;
  List.iter
    (fun ((name, labels), v) ->
      let pname = prom_name name in
      type_line pname "gauge";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" pname (prom_labels labels) (prom_float v)))
    snap.Registry.gauges;
  List.iter
    (fun ((name, labels), h) ->
      let pname = prom_name name in
      type_line pname "histogram";
      let bins = Array.length h.Registry.counts in
      let width = (h.Registry.hhi -. h.Registry.hlo) /. float_of_int bins in
      (* Cumulative buckets; observations below [lo] belong in every
         bucket, observations at or above [hi] only in +Inf. *)
      let cumulative = ref h.Registry.underflow in
      for i = 0 to bins - 1 do
        cumulative := !cumulative + h.Registry.counts.(i);
        let le = h.Registry.hlo +. (width *. float_of_int (i + 1)) in
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" pname
             (prom_labels ~extra:("le", prom_float le) labels)
             !cumulative)
      done;
      (* OpenMetrics exemplar: the freshest traced observation rides
         on the +Inf bucket (which every observation lands in). *)
      let exemplar_suffix =
        match h.Registry.exemplar with
        | None -> ""
        | Some e ->
            Printf.sprintf " # {trace_id=\"%s\"} %s %s"
              (Labels.escape_value e.Registry.ex_trace)
              (prom_float e.Registry.ex_value)
              (prom_float e.Registry.ex_wall)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d%s\n" pname
           (prom_labels ~extra:("le", "+Inf") labels)
           h.Registry.count exemplar_suffix);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" pname (prom_labels labels)
           (prom_float h.Registry.sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" pname (prom_labels labels)
           h.Registry.count))
    snap.Registry.histograms;
  (* OpenMetrics end-of-exposition marker; a comment to plain-0.0.4
     parsers, the required terminator for strict scrapers. *)
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* {2 JSON document} *)

let json_of_histogram (h : Registry.histogram_snapshot) =
  Json.Obj
    [
      ("lo", Json.Float h.Registry.hlo);
      ("hi", Json.Float h.Registry.hhi);
      ("count", Json.Int h.Registry.count);
      ("sum", Json.Float h.Registry.sum);
      ( "mean",
        if h.Registry.count = 0 then Json.Null
        else Json.Float (h.Registry.sum /. float_of_int h.Registry.count) );
      ("underflow", Json.Int h.Registry.underflow);
      ("overflow", Json.Int h.Registry.overflow);
      ("buckets", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.Registry.counts)));
      ( "exemplar",
        match h.Registry.exemplar with
        | None -> Json.Null
        | Some e ->
            Json.Obj
              [
                ("trace_id", Json.String e.Registry.ex_trace);
                ("value", Json.Float e.Registry.ex_value);
                ("wall", Json.Float e.Registry.ex_wall);
              ] );
    ]

let json (snap : Registry.snapshot) =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun (key, v) -> (key_string key, Json.Int v))
             snap.Registry.counters) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (key, v) -> (key_string key, Json.Float v))
             snap.Registry.gauges) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (key, h) -> (key_string key, json_of_histogram h))
             snap.Registry.histograms) );
    ]

let json_string snap = Json.to_string (json snap)

type format = Json_doc | Prometheus

let format_of_string = function
  | "json" -> Some Json_doc
  | "prom" | "prometheus" -> Some Prometheus
  | _ -> None

let render fmt snap =
  match fmt with
  | Json_doc -> json_string snap
  | Prometheus -> prometheus snap
