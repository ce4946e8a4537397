(* JSON wire format for journal records and snapshot state.  One op
   per WAL record payload; floats render with Obs.Json's rule (%.12g
   when that reads back as the same float, else %.17g), so encoding is
   deterministic and lossless — equal values always produce equal
   bytes (recovery determinism leans on this). *)

module J = Obs.Json
module E = Cac.Engine

let json_of_op (op : E.op) =
  match op with
  | E.Op_add_link { id; capacity; buffer; target_clr } ->
      J.Obj
        [
          ("op", J.String "add_link");
          ("id", J.String id);
          ("capacity", J.Float capacity);
          ("buffer", J.Float buffer);
          ("target_clr", J.Float target_clr);
        ]
  | E.Op_admit { conn; link; cls } ->
      J.Obj
        [
          ("op", J.String "admit");
          ("conn", J.Int conn);
          ("link", J.String link);
          ("class", J.String cls);
        ]
  | E.Op_release conn ->
      J.Obj [ ("op", J.String "release"); ("conn", J.Int conn) ]

let encode_op op = J.to_string (json_of_op op)

(* Obs.Json parses exactly-integral numbers as [Int], so every float
   field decoder must accept both shapes. *)
let float_member key j =
  match J.member key j with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let string_member key j =
  match J.member key j with Some (J.String s) -> Some s | _ -> None

let int_member key j =
  match J.member key j with Some (J.Int i) -> Some i | _ -> None

let op_of_json j =
  match string_member "op" j with
  | Some "add_link" -> (
      match
        ( string_member "id" j,
          float_member "capacity" j,
          float_member "buffer" j,
          float_member "target_clr" j )
      with
      | Some id, Some capacity, Some buffer, Some target_clr ->
          Ok (E.Op_add_link { id; capacity; buffer; target_clr })
      | _ -> Error "add_link: missing or mistyped field")
  | Some "admit" -> (
      match
        (int_member "conn" j, string_member "link" j, string_member "class" j)
      with
      | Some conn, Some link, Some cls -> Ok (E.Op_admit { conn; link; cls })
      | _ -> Error "admit: missing or mistyped field")
  | Some "release" -> (
      match int_member "conn" j with
      | Some conn -> Ok (E.Op_release conn)
      | None -> Error "release: missing conn")
  | Some other -> Error (Printf.sprintf "unknown op %S" other)
  | None -> Error "missing op field"

let decode_op s =
  match J.of_string s with
  | None -> Error "unparseable JSON"
  | Some j -> op_of_json j

let json_of_state (st : E.state) =
  J.Obj
    [
      ("next_conn", J.Int st.E.s_next_conn);
      ( "links",
        J.List
          (List.map
             (fun (ls : E.link_state) ->
               J.Obj
                 [
                   ("id", J.String ls.E.l_id);
                   ("capacity", J.Float ls.E.l_capacity);
                   ("buffer", J.Float ls.E.l_buffer);
                   ("target_clr", J.Float ls.E.l_target_clr);
                 ])
             st.E.s_links) );
      ( "conns",
        J.List
          (List.map
             (fun (cs : E.conn_state) ->
               J.Obj
                 [
                   ("conn", J.Int cs.E.c_conn);
                   ("link", J.String cs.E.c_link);
                   ("class", J.String cs.E.c_class);
                 ])
             st.E.s_conns) );
      ( "breakers",
        J.List
          (List.map
             (fun (bs : E.breaker_snapshot) ->
               J.Obj
                 [
                   ("link", J.String bs.E.b_link);
                   ("class", J.String bs.E.b_class);
                   ("state", J.String bs.E.b_state);
                 ])
             st.E.s_breakers) );
    ]

(* Decoding goes through a local exception to keep the field plumbing
   readable; the boundary re-packages it as a result. *)
exception Bad of string

let need what = function Some v -> v | None -> raise (Bad what)

let list_member key j =
  match J.member key j with
  | Some (J.List l) -> l
  | _ -> raise (Bad (key ^ ": expected a list"))

let state_of_json j =
  match
    let links =
      List.map
        (fun lj ->
          {
            E.l_id = need "link id" (string_member "id" lj);
            l_capacity = need "link capacity" (float_member "capacity" lj);
            l_buffer = need "link buffer" (float_member "buffer" lj);
            l_target_clr = need "link target_clr" (float_member "target_clr" lj);
          })
        (list_member "links" j)
    in
    let conns =
      List.map
        (fun cj ->
          {
            E.c_conn = need "conn id" (int_member "conn" cj);
            c_link = need "conn link" (string_member "link" cj);
            c_class = need "conn class" (string_member "class" cj);
          })
        (list_member "conns" j)
    in
    let breakers =
      List.map
        (fun bj ->
          {
            E.b_link = need "breaker link" (string_member "link" bj);
            b_class = need "breaker class" (string_member "class" bj);
            b_state = need "breaker state" (string_member "state" bj);
          })
        (list_member "breakers" j)
    in
    {
      E.s_links = links;
      s_conns = conns;
      s_breakers = breakers;
      s_next_conn = need "next_conn" (int_member "next_conn" j);
    }
  with
  | st -> Ok st
  | exception Bad what -> Error what
