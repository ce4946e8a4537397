(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the framing
   checksum behind WAL records and snapshot files.  Table-driven; the
   table is immutable after initialisation (C1 waiver in .ctslint,
   same rationale as the registry's shard table). *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let digest s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff
