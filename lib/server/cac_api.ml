(* The admission-control daemon's endpoint surface: a Router over a
   Cac.Engine.  Engines are single-domain by contract, so every engine
   call is serialized by one mutex — decisions are microseconds
   (cached: a hash lookup), so the lock is never the bottleneck next
   to socket I/O. *)

type t = {
  engine : Cac.Engine.t;
  mutex : Mutex.t;
  started_wall : float;
  (* The durability barrier: runs after each acked mutation, outside
     the engine mutex, and blocks until the fsync policy's watermark
     covers it. *)
  barrier : unit -> unit;
  (* Extra /debug/vars sections contributed by the embedding daemon
     (pool configuration, build info, …); guarded by [mutex]. *)
  mutable debug_providers : (string * (unit -> Obs.Json.t)) list;
}

let create ?(barrier = fun () -> ()) engine =
  {
    engine;
    mutex = Mutex.create ();
    started_wall = Obs.Clock.wall ();
    barrier;
    debug_providers = [];
  }

let with_engine t f = Mutex.protect t.mutex (fun () -> f t.engine)

let add_debug_provider t ~name f =
  Mutex.protect t.mutex (fun () ->
      t.debug_providers <-
        (name, f) :: List.remove_assoc name t.debug_providers);
  t

(* {2 Request decoding} *)

let body_json (req : Http.request) =
  match Obs.Json.of_string req.Http.body with
  | Some doc -> Ok doc
  | None -> Stdlib.Error (Http.json_error ~status:400 "malformed JSON body")

let string_field doc name =
  match Obs.Json.member name doc with
  | Some (Obs.Json.String s) -> Ok s
  | Some _ ->
      Stdlib.Error
        (Http.json_error ~status:422
           (Printf.sprintf "field %S must be a string" name))
  | None ->
      Stdlib.Error
        (Http.json_error ~status:422 (Printf.sprintf "missing field %S" name))

let int_field doc name =
  match Obs.Json.member name doc with
  | Some (Obs.Json.Int n) -> Ok n
  | Some _ ->
      Stdlib.Error
        (Http.json_error ~status:422
           (Printf.sprintf "field %S must be an integer" name))
  | None ->
      Stdlib.Error
        (Http.json_error ~status:422 (Printf.sprintf "missing field %S" name))

let ( let* ) r k = match r with Ok v -> k v | Stdlib.Error resp -> resp

(* {"link": ..., "class": ...} — the decide/admit request schema. *)
let link_class t req k =
  let* doc = body_json req in
  let* link = string_field doc "link" in
  let* cls_name = string_field doc "class" in
  match Cac.Source_class.of_name cls_name with
  | None ->
      Http.json_error ~status:404
        (Printf.sprintf "unknown class %S (known: %s)" cls_name
           (String.concat ", " Cac.Source_class.names))
  | Some cls ->
      if not (with_engine t (fun e -> Cac.Engine.mem_link e link)) then
        Http.json_error ~status:404 (Printf.sprintf "unknown link %S" link)
      else k ~link ~cls

(* {2 Encoding} *)

let opt_float = function
  | Some v -> Obs.Json.Float v
  | None -> Obs.Json.Null

let reason_json = function
  | Some Cac.Engine.Unstable -> Obs.Json.String "unstable"
  | Some Cac.Engine.Clr_exceeded -> Obs.Json.String "clr_exceeded"
  | None -> Obs.Json.Null

let verdict_json (v : Cac.Engine.verdict) =
  Obs.Json.Obj
    [
      ("admissible", Obs.Json.Bool v.Cac.Engine.admissible);
      ("degraded", Obs.Json.Bool v.Cac.Engine.degraded);
      ("reason", reason_json v.Cac.Engine.reason);
      ("log10_bop", opt_float v.Cac.Engine.log10_bop);
      ("required_bw", opt_float v.Cac.Engine.required_bw);
    ]

(* {2 Handlers} *)

(* Each mutating/deciding endpoint opens its own span under the pool's
   [srv.http.request] span, so a traced request yields a proper span
   tree (request → api handler → engine/kernel spans), all stamped
   with the same trace id. *)

let decide t req =
  Obs.Span.with_ ~name:"cac.api.decide" @@ fun () ->
  link_class t req @@ fun ~link ~cls ->
  (* The only blocking call the lint can reach from this critical
     section is the seeded latency injector inside the decision
     cache; it is disarmed outside chaos tests and exists precisely
     to exercise lock-hold latency. *)
  let verdict =
    (with_engine t (fun e -> Cac.Engine.evaluate e ~link ~cls)
    [@lint.allow "L1"])
  in
  Http.json (verdict_json verdict)

let admit t req =
  Obs.Span.with_ ~name:"cac.api.admit" @@ fun () ->
  link_class t req @@ fun ~link ~cls ->
  (* Same seeded-latency-injector waiver as [decide]. *)
  match
    (with_engine t (fun e -> Cac.Engine.admit e ~link ~cls)
    [@lint.allow "L1"])
  with
  | Cac.Engine.Admitted conn ->
      (* Ack only once the journal's fsync policy covers the admit:
         the barrier runs outside the engine mutex so slow storage
         never serializes decisions.  A barrier that raises refuses
         the admit, so the engine gives the bandwidth back: the client
         never learns [conn] and could not release it. *)
      (match t.barrier () with
      | () -> ()
      | exception exn ->
          with_engine t (fun e -> Cac.Engine.release e ~conn);
          raise exn);
      Http.json
        (Obs.Json.Obj
           [ ("admitted", Obs.Json.Bool true); ("conn", Obs.Json.Int conn) ])
  | Cac.Engine.Rejected reason ->
      Http.json
        (Obs.Json.Obj
           [
             ("admitted", Obs.Json.Bool false);
             ("reason", reason_json (Some reason));
           ])

let release t req =
  Obs.Span.with_ ~name:"cac.api.release" @@ fun () ->
  let* doc = body_json req in
  let* conn = int_field doc "conn" in
  match with_engine t (fun e -> Cac.Engine.release e ~conn) with
  | () ->
      t.barrier ();
      Http.json (Obs.Json.Obj [ ("released", Obs.Json.Bool true) ])
  | exception Invalid_argument _ ->
      Http.json_error ~status:404 (Printf.sprintf "unknown connection %d" conn)

let healthz t _req =
  let links, connections =
    with_engine t (fun e ->
        ( List.map (fun l -> Obs.Json.String (Cac.Link.id l)) (Cac.Engine.links e),
          Cac.Engine.active_connections e ))
  in
  Http.json
    (Obs.Json.Obj
       [
         ("status", Obs.Json.String "ok");
         (* Always "ready": the daemon binds only after recovery.  The
            field stays for readiness probes. *)
         ("state", Obs.Json.String "ready");
         ("uptime_s", Obs.Json.Float (Obs.Clock.wall () -. t.started_wall));
         ("links", Obs.Json.List links);
         ("connections", Obs.Json.Int connections);
       ])

let breaker_json (b : Cac.Engine.breaker_snapshot) =
  Obs.Json.Obj
    [
      ("link", Obs.Json.String b.Cac.Engine.b_link);
      ("class", Obs.Json.String b.Cac.Engine.b_class);
      ("state", Obs.Json.String b.Cac.Engine.b_state);
    ]

let debug_vars t _req =
  let providers, breakers =
    Mutex.protect t.mutex (fun () ->
        (t.debug_providers, Cac.Engine.breakers t.engine))
  in
  let provider_fields =
    List.rev_map
      (fun (name, f) ->
        ( name,
          match f () with
          | doc -> doc
          | exception _ -> Obs.Json.String "<provider error>" ))
      providers
  in
  Http.json
    (Obs.Json.Obj
       ([
          ("uptime_s", Obs.Json.Float (Obs.Clock.wall () -. t.started_wall));
          ("clock_source", Obs.Json.String (Obs.Clock.source ()));
          (* Every (link, class) circuit breaker that has seen a
             kernel evaluation, with its state. *)
          ("breakers", Obs.Json.List (List.map breaker_json breakers));
        ]
       @ provider_fields))

let heatmap_html _req =
  match Obs.Heatmap.of_snapshot (Obs.Registry.snapshot ()) with
  | Some hm ->
      Http.response
        ~headers:[ ("content-type", "text/html; charset=utf-8") ]
        ~status:200 (Obs.Heatmap.to_html hm)
  | None ->
      Http.response
        ~headers:[ ("content-type", "text/html; charset=utf-8") ]
        ~status:200
        "<!DOCTYPE html>\n\
         <html><head><meta charset=\"utf-8\"><meta http-equiv=\"refresh\" \
         content=\"5\"><title>cts.m_star heatmap</title></head>\n\
         <body><p>No per-buffer m* observations yet — issue some \
         /v1/decide requests first.</p></body></html>\n"

let heatmap_csv _req =
  let body =
    match Obs.Heatmap.of_snapshot (Obs.Registry.snapshot ()) with
    | Some hm -> Obs.Heatmap.to_csv hm
    | None -> "buffer_cells,bin_lo,bin_hi,count\n"
  in
  Http.response
    ~headers:[ ("content-type", "text/csv; charset=utf-8") ]
    ~status:200 body

let metrics _req =
  Http.response
    ~headers:[ ("content-type", "text/plain; version=0.0.4; charset=utf-8") ]
    ~status:200
    (Obs.Export.prometheus (Obs.Registry.snapshot ()))

(* Last-resort exception boundary for every route.  Handlers can
   raise through deep call chains (a kernel [invalid_arg], a histogram
   shape mismatch in the registry) — that must become a structured
   500, not a torn connection and a dead worker domain.  The pool's
   boundary uses the same fallback, so the 500 counts once in
   [srv.http.handler_errors] whichever boundary catches the raise. *)
let protected h req =
  Resilience.Guard.protect ~fallback:Router.internal_error
    (fun () -> h req)

let router t =
  Router.create
    [
      Router.route Http.POST "/v1/decide" (protected (decide t));
      Router.route Http.POST "/v1/admit" (protected (admit t));
      Router.route Http.POST "/v1/release" (protected (release t));
      Router.route Http.GET "/metrics" (protected metrics);
      Router.route Http.GET "/healthz" (protected (healthz t));
      Router.route Http.GET "/debug/vars" (protected (debug_vars t));
      Router.route Http.GET "/heatmap" (protected heatmap_html);
      Router.route Http.GET "/heatmap.csv" (protected heatmap_csv);
    ]
