type t = {
  name : string;
  process : Traffic.Process.t;
  vg : Core.Variance_growth.t;
}

let of_process process =
  {
    name = process.Traffic.Process.name;
    process;
    vg =
      Core.Variance_growth.create ~acf:process.Traffic.Process.acf
        ~variance:process.Traffic.Process.variance
        ~tail:process.Traffic.Process.tail;
  }

let names =
  [ "z0.7"; "z0.9"; "z0.975"; "z0.99"; "l"; "dar1"; "dar2"; "dar3"; "mpeg" ]

let process_of_name name =
  match name with
  | "z0.7" -> Some (Traffic.Models.z ~a:0.7).Traffic.Models.process
  | "z0.9" -> Some (Traffic.Models.z ~a:0.9).Traffic.Models.process
  | "z0.975" -> Some (Traffic.Models.z ~a:0.975).Traffic.Models.process
  | "z0.99" -> Some (Traffic.Models.z ~a:0.99).Traffic.Models.process
  | "l" -> Some (Traffic.Models.l ())
  | "dar1" -> Some (Traffic.Models.s ~a:0.975 ~p:1)
  | "dar2" -> Some (Traffic.Models.s ~a:0.975 ~p:2)
  | "dar3" -> Some (Traffic.Models.s ~a:0.975 ~p:3)
  | "mpeg" -> Some (Traffic.Mpeg.process (Traffic.Mpeg.create ~mean:500.0 ()))
  | _ -> None

let fresh name =
  let name = String.lowercase_ascii name in
  Option.map
    (fun process -> { (of_process process) with name })
    (process_of_name name)

(* The class memo: one variance-growth table per class per domain.
   Domain-local (each domain lazily rebuilds its own table) so
   Domain-parallel sweeps never share an unsynchronized Hashtbl —
   lint rule C1 exists to keep it that way. *)
let registry_key : (string, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let of_name name =
  let registry = Domain.DLS.get registry_key in
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt registry name with
  | Some cls -> Some cls
  | None ->
      Option.map
        (fun cls ->
          Hashtbl.replace registry name cls;
          cls)
        (fresh name)

let of_name_exn name =
  match of_name name with
  | Some cls -> cls
  | None ->
      invalid_arg
        (Printf.sprintf "Source_class.of_name_exn: unknown class %S (try %s)"
           name (String.concat ", " names))

let mean t = t.process.Traffic.Process.mean

(* The fail-closed allocation unit: mean + 3 sigma of the frame-size
   marginal.  It must not depend on the variance-growth table or any
   iterative numerics — those are exactly what the degraded path
   assumes broken. *)
let peak t =
  t.process.Traffic.Process.mean
  +. (3.0 *. sqrt t.process.Traffic.Process.variance)
