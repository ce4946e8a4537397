(* Hashtbl over an intrusive doubly-linked recency list: O(1) lookup,
   insertion, touch and eviction. *)

(* Every cache feeds the process-wide registry counters below (summed
   over all instances and domains); the per-instance [stats] view
   remains for steady-state windows ({!diff}) within one run. *)
let () =
  Obs.Registry.declare_counter "cac.cache.hits";
  Obs.Registry.declare_counter "cac.cache.misses";
  Obs.Registry.declare_counter "cac.cache.evictions"

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* registry handles (each domain resolves its own shard cell) *)
  c_hits : Obs.Registry.Counter.t;
  c_misses : Obs.Registry.Counter.t;
  c_evictions : Obs.Registry.Counter.t;
}

let create ~capacity =
  if capacity < 0 then
    invalid_arg (Printf.sprintf "Decision_cache.create: capacity %d < 0" capacity);
  {
    cap = capacity;
    table = Hashtbl.create (Stdlib.max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    c_hits = Obs.Registry.Counter.v "cac.cache.hits";
    c_misses = Obs.Registry.Counter.v "cac.cache.misses";
    c_evictions = Obs.Registry.Counter.v "cac.cache.evictions";
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.evictions <- t.evictions + 1;
      Obs.Registry.Counter.incr t.c_evictions

let find_or_add t key ~compute =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      Obs.Registry.Counter.incr t.c_hits;
      let is_head = match t.head with Some h -> h == node | None -> false in
      if not is_head then begin
        unlink t node;
        push_front t node
      end;
      node.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.Registry.Counter.incr t.c_misses;
      (* Fault hook, then the real computation.  Either raising leaves
         the cache untouched — the miss is counted but no entry is
         inserted, so a failed compute can never poison the key: the
         next lookup recomputes. *)
      Resilience.Fault.inject "cac.cache.compute";
      let value = compute () in
      if t.cap > 0 then begin
        if Hashtbl.length t.table >= t.cap then evict_lru t;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node
      end;
      value

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

let stats (t : (_, _) t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
  }

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let diff ~before ~after =
  {
    hits = after.hits - before.hits;
    misses = after.misses - before.misses;
    evictions = after.evictions - before.evictions;
    entries = after.entries;
  }
