exception Injected of string

type kind = Raise | Nan | Latency_us of float | Short_write | Torn_write
type rule = { point : string; kind : kind; rate : float }

(* Every point the codebase threads a hook through, with the fault
   kinds that make sense there.  [nan] needs a float-valued point;
   [short-write]/[torn-write] need a write-shaped point (one that goes
   through {!write_plan}). *)
let known_points =
  [
    ("bahadur_rao.evaluate", [ "raise"; "nan"; "latency" ]);
    ("cac.cache.compute", [ "raise"; "latency" ]);
    ("cac.workload.admit", [ "raise"; "latency" ]);
    ("cac.sweep.task", [ "raise"; "latency" ]);
    ("queueing.mux.step", [ "raise"; "latency" ]);
    ("srv.http.handler", [ "raise"; "latency" ]);
    ("persist.wal.append", [ "raise"; "latency"; "short-write"; "torn-write" ]);
    ("persist.wal.fsync", [ "raise"; "latency" ]);
    ("persist.snapshot.write",
     [ "raise"; "latency"; "short-write"; "torn-write" ]);
  ]

let kind_name = function
  | Raise -> "raise"
  | Nan -> "nan"
  | Latency_us _ -> "latency"
  | Short_write -> "short-write"
  | Torn_write -> "torn-write"

(* {2 Spec parsing} *)

let parse_rule s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "fault rule %S: expected point=kind[:rate[:param]]" s)
  | Some i -> (
      let point = String.trim (String.sub s 0 i) in
      let rhs = String.sub s (i + 1) (String.length s - i - 1) in
      let fields = String.split_on_char ':' rhs |> List.map String.trim in
      let kind_s, rate_s, param_s =
        match fields with
        | [ k ] -> (k, None, None)
        | [ k; r ] -> (k, Some r, None)
        | [ k; r; p ] -> (k, Some r, Some p)
        | _ -> ("", None, None)
      in
      match List.assoc_opt point known_points with
      | None ->
          Error
            (Printf.sprintf "fault rule %S: unknown point %S (known: %s)" s point
               (String.concat ", " (List.map fst known_points)))
      | Some supported -> (
          let rate =
            match rate_s with
            | None -> Some 1.0
            | Some r -> (
                match float_of_string_opt r with
                | Some r when r > 0.0 && r <= 1.0 -> Some r
                | _ -> None)
          in
          let kind =
            match kind_s with
            | "raise" -> Some Raise
            | "nan" -> Some Nan
            | "short-write" -> Some Short_write
            | "torn-write" -> Some Torn_write
            | "latency" -> (
                match param_s with
                | None -> Some (Latency_us 1000.0)
                | Some p -> (
                    match float_of_string_opt p with
                    | Some p when p >= 0.0 -> Some (Latency_us p)
                    | _ -> None))
            | _ -> None
          in
          match (kind, rate) with
          | None, _ ->
              Error
                (Printf.sprintf
                   "fault rule %S: bad kind or latency param (kinds: raise, \
                    nan, latency[:rate[:usec]], short-write, torn-write)"
                   s)
          | _, None ->
              Error (Printf.sprintf "fault rule %S: rate must be in (0, 1]" s)
          | Some kind, Some rate ->
              if not (List.mem (kind_name kind) supported) then
                Error
                  (Printf.sprintf "fault rule %S: point %S supports only %s" s
                     point
                     (String.concat ", " supported))
              else if param_s <> None && kind_name kind <> "latency" then
                Error
                  (Printf.sprintf
                     "fault rule %S: only latency takes a parameter" s)
              else Ok { point; kind; rate }))

let parse s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_rule p with
        | Ok r -> go (r :: acc) rest
        | Error _ as e -> e)
  in
  go [] parts

let to_string rules =
  rules
  |> List.map (fun r ->
         match r.kind with
         | Latency_us us -> Printf.sprintf "%s=latency:%g:%g" r.point r.rate us
         | k -> Printf.sprintf "%s=%s:%g" r.point (kind_name k) r.rate)
  |> String.concat ","

(* {2 The armed registry}

   The configuration is process-global, written once by [configure]
   before any domain spawns and read (atomically) on every hook.  The
   draw stream is per-domain: each domain lazily (re)creates its RNG
   whenever the configuration version moves, and [reseed] re-arms just
   the calling domain — that is what makes sweep tasks deterministic
   under work stealing. *)

type cfg = { rules : rule list; seed : int; version : int }

(* C1 waiver rationale: this is the sanctioned process-wide fault
   switchboard, set once at startup (like Obs.Sink's human handle) and
   read-only afterwards. *)
let cfg = Atomic.make { rules = []; seed = 1996; version = 0 }

type dstate = { mutable version : int; mutable rng : Numerics.Rng.t }

let dstate_key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { version = -1; rng = Numerics.Rng.create ~seed:0 })

let configure ?(seed = 1996) rules =
  let c = Atomic.get cfg in
  Atomic.set cfg { rules; seed; version = c.version + 1 }

let clear () = configure []
let active () = (Atomic.get cfg).rules <> []

let domain_rng (c : cfg) =
  let d = Domain.DLS.get dstate_key in
  if d.version <> c.version then begin
    d.rng <- Numerics.Rng.create ~seed:c.seed;
    d.version <- c.version
  end;
  d.rng

let reseed seed =
  let c : cfg = Atomic.get cfg in
  let d = Domain.DLS.get dstate_key in
  d.rng <- Numerics.Rng.create ~seed;
  d.version <- c.version

(* {2 Hooks} *)

let () = Obs.Registry.declare_counter "cac.fault.injected"

let count rule =
  Obs.Registry.incr "cac.fault.injected";
  Obs.Registry.incr
    ~labels:
      (Obs.Labels.make
         [ ("point", rule.point); ("kind", kind_name rule.kind) ])
    "cac.fault.injected"

let injected_total () = Obs.Registry.counter_value "cac.fault.injected"

(* Draw once per armed rule for the point — every call consumes the
   same number of draws whatever fires, keeping the stream aligned
   across runs. *)
let fired_rules point =
  let c = Atomic.get cfg in
  match List.filter (fun r -> r.point = point) c.rules with
  | [] -> []
  | rules ->
      let rng = domain_rng c in
      List.filter (fun r -> Numerics.Rng.float rng < r.rate) rules

let apply_latency fired =
  List.iter
    (fun r ->
      match r.kind with
      | Latency_us us ->
          count r;
          Unix.sleepf (us *. 1e-6)
      | Raise | Nan | Short_write | Torn_write -> ())
    fired

let apply_raise point fired =
  List.iter
    (fun r ->
      match r.kind with
      | Raise ->
          count r;
          raise (Injected point)
      | Nan | Latency_us _ | Short_write | Torn_write -> ())
    fired

let inject point =
  match fired_rules point with
  | [] -> ()
  | fired ->
      apply_latency fired;
      apply_raise point fired

(* {2 Write-shaped hooks}

   The persistence layer asks the switchboard what should happen to an
   [len]-byte write *before* issuing it, so a torn write really leaves
   a partial record on disk instead of merely pretending to.  A fired
   torn-write wins over a fired short-write: both truncate, but torn
   additionally severs the record framing mid-frame. *)

type write_outcome = Write_all | Write_short of int | Write_torn of int

let partial_len len = min (len - 1) (max 1 (len / 2))

let write_plan point ~len =
  match fired_rules point with
  | [] -> Write_all
  | fired ->
      apply_latency fired;
      apply_raise point fired;
      if len <= 1 then Write_all
      else
        let has pred =
          List.exists
            (fun r ->
              if pred r.kind then begin
                count r;
                true
              end
              else false)
            fired
        in
        let short = has (function Short_write -> true | _ -> false) in
        let torn = has (function Torn_write -> true | _ -> false) in
        if torn then Write_torn (partial_len len)
        else if short then Write_short (partial_len len)
        else Write_all

let inject_float point f =
  match fired_rules point with
  | [] -> f ()
  | fired ->
      apply_latency fired;
      apply_raise point fired;
      let v = f () in
      let corrupt =
        List.exists (fun r -> match r.kind with Nan -> true | _ -> false) fired
      in
      if corrupt then begin
        List.iter
          (fun r -> match r.kind with Nan -> count r | _ -> ())
          fired;
        Float.nan
      end
      else v
