open Ccr_core

type msg = { m_name : string; m_payload : Value.t list }

type t = Req of msg | Ack | Nack

let equal (a : t) (b : t) = a = b

(* Closure-free walkers: key encoding is on the checker's hot path. *)
let rec encode_values buf = function
  | [] -> ()
  | v :: vs ->
    Value.encode buf v;
    encode_values buf vs

let rec encode_values_perm buf p = function
  | [] -> ()
  | v :: vs ->
    Value.encode_perm buf p v;
    encode_values_perm buf p vs

let encode_header buf m =
  Value.encode_int buf 2;
  Value.encode_int buf (String.length m.m_name);
  Buffer.add_string buf m.m_name;
  Value.encode_int buf (List.length m.m_payload)

let encode_req buf m =
  encode_header buf m;
  encode_values buf m.m_payload

let encode_req_perm buf p m =
  encode_header buf m;
  encode_values_perm buf p m.m_payload

let encode buf = function
  | Ack -> Value.encode_int buf 0
  | Nack -> Value.encode_int buf 1
  | Req m -> encode_req buf m

let encode_perm buf p = function
  | Ack -> Value.encode_int buf 0
  | Nack -> Value.encode_int buf 1
  | Req m -> encode_req_perm buf p m

let skip s pos =
  let tag, pos = Value.read_int s pos in
  match tag with
  | 0 | 1 -> pos (* ack, nack *)
  | 2 ->
    let namelen, pos = Value.read_int s pos in
    let arity, pos = Value.read_int s (pos + namelen) in
    let pos = ref pos in
    for _ = 1 to arity do
      pos := Value.skip s !pos
    done;
    !pos
  | t -> invalid_arg (Printf.sprintf "Wire.skip: bad message tag %d" t)

let pp ppf = function
  | Ack -> Fmt.string ppf "ack"
  | Nack -> Fmt.string ppf "nack"
  | Req m ->
    Fmt.pf ppf "req:%s(%a)" m.m_name
      Fmt.(list ~sep:comma Value.pp)
      m.m_payload
