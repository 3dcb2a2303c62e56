type rid = int

type t =
  | Vunit
  | Vbool of bool
  | Vint of int
  | Vrid of rid
  | Vset of int

type domain =
  | Dunit
  | Dbool
  | Dint of int * int
  | Drid
  | Dset

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let default = function
  | Dunit -> Vunit
  | Dbool -> Vbool false
  | Dint (lo, _) -> Vint lo
  | Drid -> Vrid 0
  | Dset -> Vset 0

let member ~n dom v =
  match (dom, v) with
  | Dunit, Vunit -> true
  | Dbool, Vbool _ -> true
  | Dint (lo, hi), Vint i -> lo <= i && i <= hi
  | Drid, Vrid r -> 0 <= r && r < n
  | Dset, Vset m -> m >= 0 && m < 1 lsl n
  | (Dunit | Dbool | Dint _ | Drid | Dset), _ -> false

let enumerate ~n = function
  | Dunit -> [ Vunit ]
  | Dbool -> [ Vbool false; Vbool true ]
  | Dint (lo, hi) -> List.init (hi - lo + 1) (fun i -> Vint (lo + i))
  | Drid -> List.init n (fun i -> Vrid i)
  | Dset -> List.init (1 lsl n) (fun m -> Vset m)

let set_empty = Vset 0

let as_mask = function
  | Vset m -> m
  | Vunit | Vbool _ | Vint _ | Vrid _ -> invalid_arg "Value: expected a set"

let set_mem r s = as_mask s land (1 lsl r) <> 0
let set_add r s = Vset (as_mask s lor (1 lsl r))
let set_remove r s = Vset (as_mask s land lnot (1 lsl r))
let set_is_empty s = as_mask s = 0

let set_members s =
  let m = as_mask s in
  let rec loop i acc =
    if 1 lsl i > m then List.rev acc
    else loop (i + 1) (if m land (1 lsl i) <> 0 then i :: acc else acc)
  in
  loop 0 []

let set_of_list rs = Vset (List.fold_left (fun m r -> m lor (1 lsl r)) 0 rs)
(* popcount: no intermediate member list *)
let set_cardinal s =
  let rec count m acc = if m = 0 then acc else count (m land (m - 1)) (acc + 1) in
  count (as_mask s) 0

let pp ppf = function
  | Vunit -> Fmt.string ppf "()"
  | Vbool b -> Fmt.bool ppf b
  | Vint i -> Fmt.int ppf i
  | Vrid r -> Fmt.pf ppf "r%d" r
  | Vset s ->
    Fmt.pf ppf "{%s}"
      (String.concat "," (List.map string_of_int (set_members (Vset s))))

let pp_domain ppf = function
  | Dunit -> Fmt.string ppf "unit"
  | Dbool -> Fmt.string ppf "bool"
  | Dint (lo, hi) -> Fmt.pf ppf "int[%d..%d]" lo hi
  | Drid -> Fmt.string ppf "rid"
  | Dset -> Fmt.string ppf "rid set"

(* The encoders run once per discovered state on the model checker's hot
   path, so they are closure-free: each allocates nothing beyond what the
   buffer itself grows by. *)
let add_byte buf i = Buffer.add_char buf (Char.unsafe_chr (i land 0xff))

let encode_int buf i =
  (* small non-negative ints in one byte; larger in five *)
  if i >= 0 && i < 0xf8 then add_byte buf i
  else begin
    add_byte buf 0xf8;
    add_byte buf i;
    add_byte buf (i lsr 8);
    add_byte buf (i lsr 16);
    add_byte buf (i asr 24)
  end

(* Single source of the rid/set byte layout, shared with {!encode_perm}:
   a renamed value must encode exactly as the value it renames to. *)
let encode_rid buf r =
  Buffer.add_char buf '\004';
  encode_int buf r

let encode_set buf m =
  Buffer.add_char buf '\005';
  encode_int buf m

let encode buf v =
  match v with
  | Vunit -> add_byte buf 0
  | Vbool false -> add_byte buf 1
  | Vbool true -> add_byte buf 2
  | Vint i ->
    add_byte buf 3;
    encode_int buf (if i >= 0 then 2 * i else (-2 * i) + 1)
  | Vrid r -> encode_rid buf r
  | Vset m -> encode_set buf m

let encode_perm buf p v =
  match v with
  | Vrid r -> encode_rid buf p.(r)
  | Vset m ->
    let m' = ref 0 in
    let i = ref 0 in
    while m lsr !i <> 0 do
      if (m lsr !i) land 1 = 1 then m' := !m' lor (1 lsl p.(!i));
      incr i
    done;
    encode_set buf !m'
  | Vunit | Vbool _ | Vint _ -> encode buf v

(* ---- scanning encoded keys ----------------------------------------------

   The encodings above are self-delimiting, so an encoded state can be
   re-parsed from its bytes alone.  The collapse-compression visited store
   uses this to cut a key into per-component substrings without a second
   encoder: the scanners below advance a cursor over one encoded item. *)

let read_int s pos =
  let b = Char.code (String.unsafe_get s pos) in
  if b < 0xf8 then (b, pos + 1)
  else
    let byte i = Char.code (String.unsafe_get s (pos + i)) in
    let v = byte 1 lor (byte 2 lsl 8) lor (byte 3 lsl 16) lor (byte 4 lsl 24) in
    (* byte 4 carries the sign (encode_int wrote [i asr 24]) *)
    ((if byte 4 >= 0x80 then v - (1 lsl 32) else v), pos + 5)

let skip_int s pos =
  if Char.code (String.unsafe_get s pos) < 0xf8 then pos + 1 else pos + 5

let skip s pos =
  match Char.code (String.unsafe_get s pos) with
  | 0 | 1 | 2 -> pos + 1 (* unit, false, true *)
  | 3 | 4 | 5 -> skip_int s (pos + 1) (* int, rid, set: tag then varint *)
  | b -> invalid_arg (Printf.sprintf "Value.skip: bad tag byte %d" b)
