type t = {
  id : string;
  capacity : float;
  buffer : float;
  target_clr : float;
  by_class : (string, Source_class.t * int) Hashtbl.t;
  mutable total : int;
}

let create ~id ~capacity ~buffer ~target_clr =
  if not (target_clr > 0.0 && target_clr < 1.0) then
    invalid_arg "Link.create: target_clr outside (0, 1)";
  { id; capacity; buffer; target_clr; by_class = Hashtbl.create 8; total = 0 }

let id t = t.id
let capacity t = t.capacity
let buffer t = t.buffer
let target_clr t = t.target_clr

let count t ~cls =
  match Hashtbl.find_opt t.by_class cls.Source_class.name with
  | Some (_, n) -> n
  | None -> 0

let counts t =
  Hashtbl.fold (fun _ (cls, n) acc -> (cls, n) :: acc) t.by_class []
  |> List.sort (fun (a, _) (b, _) ->
         String.compare a.Source_class.name b.Source_class.name)

let connections t = t.total

let mean_load t =
  Hashtbl.fold
    (fun _ (cls, n) acc -> acc +. (float_of_int n *. Source_class.mean cls))
    t.by_class 0.0

let utilization t = mean_load t /. t.capacity

let buffer_msec t =
  Queueing.Units.buffer_msec_of_cells ~cells:t.buffer
    ~service_cells_per_frame:t.capacity ~ts:Traffic.Models.ts

let add t ~cls =
  let n = count t ~cls in
  Hashtbl.replace t.by_class cls.Source_class.name (cls, n + 1);
  t.total <- t.total + 1

let remove t ~cls =
  match Hashtbl.find_opt t.by_class cls.Source_class.name with
  | None | Some (_, 0) ->
      invalid_arg
        (Printf.sprintf "Link.remove: no %s connection admitted on %s"
           cls.Source_class.name t.id)
  | Some (_, 1) ->
      Hashtbl.remove t.by_class cls.Source_class.name;
      t.total <- t.total - 1
  | Some (c, n) ->
      Hashtbl.replace t.by_class cls.Source_class.name (c, n - 1);
      t.total <- t.total - 1
