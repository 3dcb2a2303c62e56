open Ccr_core
open Ccr_semantics

(* Rename remote ids through [p] inside a value. *)
let permute_value (p : int array) (v : Value.t) =
  match v with
  | Value.Vrid r -> Value.Vrid p.(r)
  | Value.Vset _ ->
    Value.set_of_list (List.map (fun r -> p.(r)) (Value.set_members v))
  | Value.Vunit | Value.Vbool _ | Value.Vint _ -> v

let permute_env p env = Array.map (permute_value p) env

let permute_msg p (m : Wire.msg) =
  { m with Wire.m_payload = List.map (permute_value p) m.m_payload }

let permute_wire p = function
  | Wire.Req m -> Wire.Req (permute_msg p m)
  | (Wire.Ack | Wire.Nack) as w -> w

(* New array whose slot [p.(i)] holds the (renamed) content of slot [i]. *)
let permute_slots p a f =
  if Array.length a = 0 then [||]
  else begin
    let a' = Array.make (Array.length a) (f a.(0)) in
    Array.iteri (fun i x -> a'.(p.(i)) <- f x) a;
    a'
  end

let permute_rv (_ : Prog.t) p (st : Rendezvous.state) : Rendezvous.state =
  {
    h = { st.h with env = permute_env p st.h.env };
    r =
      permute_slots p st.r (fun (ps : Rendezvous.pstate) ->
          { ps with env = permute_env p ps.env });
  }

let permute_async (_ : Prog.t) p (st : Async.state) : Async.state =
  let home =
    {
      st.Async.h with
      h_env = permute_env p st.Async.h.h_env;
      h_mode =
        (match st.Async.h.h_mode with
        | Async.Hcomm -> Async.Hcomm
        | Async.Htrans t ->
          Async.Htrans
            {
              t with
              peer = p.(t.peer);
              scratch = permute_env p t.scratch;
            });
      h_buf =
        List.map (fun (i, m) -> (p.(i), permute_msg p m)) st.Async.h.h_buf;
    }
  in
  let remote (r : Async.remote) =
    {
      Async.r_ctl = r.Async.r_ctl;
      r_env = permute_env p r.Async.r_env;
      r_mode =
        (match r.Async.r_mode with
        | Async.Rcomm -> Async.Rcomm
        | Async.Rtrans t ->
          Async.Rtrans { t with scratch = permute_env p t.scratch }
        | Async.Rwait t ->
          Async.Rwait { t with scratch = permute_env p t.scratch });
      r_buf = Option.map (permute_msg p) r.Async.r_buf;
    }
  in
  {
    Async.h = home;
    r = permute_slots p st.Async.r remote;
    to_h = permute_slots p st.Async.to_h (List.map (permute_wire p));
    to_r = permute_slots p st.Async.to_r (List.map (permute_wire p));
  }

(* All permutations of [0..n-1], as arrays. *)
let permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun r -> x :: r) (perms (List.filter (( <> ) x) l)))
        l
  in
  perms (List.init n Fun.id) |> List.map Array.of_list

(* {2 Canonicalization statistics} *)

(* Atomics so the parallel engine's worker domains can share one record;
   [tie_sizes.(s)] counts tie groups of size [s] (sizes >= 2 only). *)
let max_tie_bucket = 32

type stats = {
  st_calls : int Atomic.t;
  st_fallbacks : int Atomic.t;
  st_tied_calls : int Atomic.t;
  st_perms_tried : int Atomic.t;
  st_canon_ns : int Atomic.t;
  st_tie_sizes : int Atomic.t array;
}

let make_stats () =
  {
    st_calls = Atomic.make 0;
    st_fallbacks = Atomic.make 0;
    st_tied_calls = Atomic.make 0;
    st_perms_tried = Atomic.make 0;
    st_canon_ns = Atomic.make 0;
    st_tie_sizes = Array.init (max_tie_bucket + 1) (fun _ -> Atomic.make 0);
  }

let calls s = Atomic.get s.st_calls
let fallbacks s = Atomic.get s.st_fallbacks
let tied_calls s = Atomic.get s.st_tied_calls
let perms_tried s = Atomic.get s.st_perms_tried
let canon_seconds s = float_of_int (Atomic.get s.st_canon_ns) /. 1e9

let iter_tie_groups s f =
  Array.iteri
    (fun size c ->
      let count = Atomic.get c in
      if count > 0 then f ~size ~count)
    s.st_tie_sizes

let bump a k = if k <> 0 then ignore (Atomic.fetch_and_add a k)

let record_tie s len =
  bump s.st_tie_sizes.(min len max_tie_bucket) 1

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* {2 Brute-force canonicalization}

   Kept for [--symmetry brute] and as the test oracle for the fast path.
   The [n > max_fact] fallback returns the plain encoding — sound (it is
   still an injective key, so no two orbits merge) but it reduces nothing;
   it is now counted in [stats] instead of degrading silently. *)

let canonical ~permute ~encode ?stats ?(max_fact = 6) prog n st =
  let t0 = match stats with None -> 0 | Some _ -> now_ns () in
  let key =
    if n > max_fact then begin
      Option.iter (fun s -> bump s.st_fallbacks 1) stats;
      encode st
    end
    else
      List.fold_left
        (fun best p ->
          Option.iter (fun s -> bump s.st_perms_tried 1) stats;
          let e = encode (permute prog p st) in
          match best with
          | Some b when String.compare b e <= 0 -> best
          | _ -> Some e)
        None (permutations n)
      |> Option.get
  in
  Option.iter
    (fun s ->
      bump s.st_calls 1;
      bump s.st_canon_ns (now_ns () - t0))
    stats;
  key

let canonical_rv ?stats ?max_fact (prog : Prog.t) st =
  canonical ~permute:permute_rv ~encode:Rendezvous.encode ?stats ?max_fact
    prog prog.n st

let canonical_async ?stats ?max_fact (prog : Prog.t) st =
  canonical ~permute:permute_async ~encode:Async.encode ?stats ?max_fact prog
    prog.n st

(* {2 Fast canonicalization: signature sort + tie refinement}

   Per remote slot compute a permutation-equivariant {e signature} — a byte
   string such that slot [p.(i)] of the permuted state has the same
   signature as slot [i] of the original.  Sorting slots by signature then
   fixes the canonical position of every slot whose signature is unique;
   only slots inside {e tied} signature groups can still be reordered, so
   the minimal encoding is found by enumerating arrangements within tie
   groups only.  The common case (all signatures distinct) is one sort and
   one [encode_perm] instead of [n!] permute+encode rounds.

   Equivariance is what makes the result exactly canonical: applying the
   candidate set to any orbit member yields the same set of permuted
   states, so the minimum over it does not depend on the representative.
   Rid-valued data is abstracted {e relative to the slot} (self/other bit,
   set cardinality + contains-self) — exactly the features preserved by
   renaming.  A too-coarse signature only costs time (bigger tie groups),
   never correctness. *)

(* Per-domain scratch: signature strings, sort order, candidate
   permutation and its inverse, tie groups, the running minimum of the
   tie enumeration, plus the orbit size of the last canonicalized state
   (0 = unknown, e.g. after a fallback).  Keeping the enumeration's state
   here rather than in closures makes a call allocate only its strings. *)
type scratch = {
  mutable cap : int;
  mutable sigs : string array;
  mutable order : int array;
  mutable perm : int array;
  mutable inv : int array;
  mutable group_lo : int array;
  mutable group_hi : int array;
  mutable n_groups : int;
  mutable best : string;
  mutable stab : int;
  mutable tried : int;
  sbuf : Buffer.t;
  mutable last_orbit : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        sigs = [||];
        order = [||];
        perm = [||];
        inv = [||];
        group_lo = [||];
        group_hi = [||];
        n_groups = 0;
        best = "";
        stab = 0;
        tried = 0;
        sbuf = Buffer.create 256;
        last_orbit = 0;
      })

let ensure sc n =
  if sc.cap < n then begin
    sc.cap <- n;
    sc.sigs <- Array.make n "";
    sc.order <- Array.make n 0;
    sc.perm <- Array.make n 0;
    sc.inv <- Array.make n 0;
    sc.group_lo <- Array.make n 0;
    sc.group_hi <- Array.make n 0
  end

let last_orbit () = (Domain.DLS.get scratch_key).last_orbit

let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

(* n! for the orbit-size computation; 0 = too big to represent. *)
let factorial n = if n > 20 then 0 else fact n

(* Slot-relative value abstraction: every feature written here is
   preserved when ids are renamed and the slot moves along.  The walkers
   below are top-level and closure-free: they run [n] times per
   canonicalization. *)
let sig_value buf ~self (v : Value.t) =
  match v with
  | Value.Vrid r ->
    Buffer.add_char buf 'R';
    Buffer.add_char buf (if r = self then '1' else '0')
  | Value.Vset _ ->
    Buffer.add_char buf 'S';
    Value.encode_int buf (Value.set_cardinal v);
    Buffer.add_char buf (if Value.set_mem self v then '1' else '0')
  | Value.Vunit | Value.Vbool _ | Value.Vint _ ->
    Buffer.add_char buf 'V';
    Value.encode buf v

let sig_env buf ~self e =
  for i = 0 to Array.length e - 1 do
    sig_value buf ~self (Array.unsafe_get e i)
  done

let rec sig_values buf ~self = function
  | [] -> ()
  | v :: vs ->
    sig_value buf ~self v;
    sig_values buf ~self vs

let sig_msg buf ~self (m : Wire.msg) =
  Value.encode_int buf (String.length m.m_name);
  Buffer.add_string buf m.m_name;
  Value.encode_int buf (List.length m.m_payload);
  sig_values buf ~self m.m_payload

let sig_wire buf ~self = function
  | Wire.Ack -> Buffer.add_char buf 'a'
  | Wire.Nack -> Buffer.add_char buf 'n'
  | Wire.Req m ->
    Buffer.add_char buf 'q';
    sig_msg buf ~self m

let rec sig_wires buf ~self = function
  | [] -> ()
  | w :: ws ->
    sig_wire buf ~self w;
    sig_wires buf ~self ws

(* Buffered home requests: whether each came from this slot. *)
let rec sig_hbuf buf ~self = function
  | [] -> ()
  | (j, m) :: rest ->
    Buffer.add_char buf (if j = self then '1' else '0');
    sig_msg buf ~self m;
    sig_hbuf buf ~self rest

let rv_sig buf (st : Rendezvous.state) i =
  let r = st.r.(i) in
  Value.encode_int buf r.ctl;
  sig_env buf ~self:i r.env;
  Buffer.add_char buf '|';
  sig_env buf ~self:i st.h.env

let async_sig buf (st : Async.state) i =
  let r = st.r.(i) in
  Value.encode_int buf r.Async.r_ctl;
  sig_env buf ~self:i r.Async.r_env;
  (match r.Async.r_mode with
  | Async.Rcomm -> Buffer.add_char buf 'c'
  | Async.Rtrans { guard; scratch } ->
    Buffer.add_char buf 't';
    Value.encode_int buf guard;
    sig_env buf ~self:i scratch
  | Async.Rwait { guard; scratch; repl } ->
    Buffer.add_char buf 'w';
    Value.encode_int buf guard;
    Value.encode_int buf (String.length repl);
    Buffer.add_string buf repl;
    sig_env buf ~self:i scratch);
  (match r.Async.r_buf with
  | None -> Buffer.add_char buf '0'
  | Some m ->
    Buffer.add_char buf '1';
    sig_msg buf ~self:i m);
  Buffer.add_char buf '|';
  sig_wires buf ~self:i st.Async.to_h.(i);
  Buffer.add_char buf '|';
  sig_wires buf ~self:i st.Async.to_r.(i);
  Buffer.add_char buf '|';
  (* Home-side features as seen from slot [i]: whether home data, the
     transient peer, or buffered requests refer to this slot. *)
  sig_env buf ~self:i st.Async.h.h_env;
  (match st.Async.h.h_mode with
  | Async.Hcomm -> Buffer.add_char buf 'C'
  | Async.Htrans { guard; peer; scratch; await } ->
    Buffer.add_char buf 'T';
    Value.encode_int buf guard;
    Buffer.add_char buf (if peer = i then '1' else '0');
    (match await with
    | `Ack -> Buffer.add_char buf 'A'
    | `Repl repl ->
      Buffer.add_char buf 'P';
      Value.encode_int buf (String.length repl);
      Buffer.add_string buf repl);
    sig_env buf ~self:i scratch);
  sig_hbuf buf ~self:i st.Async.h.h_buf

let default_max_perms = 5040 (* 7!: brute-force cost we never exceed *)

(* Encode [st] with the slots in [sc.order]'s sequence. *)
let encode_order sc ~encode_perm n st =
  sc.tried <- sc.tried + 1;
  for j = 0 to n - 1 do
    sc.inv.(j) <- sc.order.(j);
    sc.perm.(sc.order.(j)) <- j
  done;
  encode_perm ~p:sc.perm ~inv:sc.inv st

(* Enumerate every arrangement within the tie groups [gi..], keeping the
   least encoding in [sc.best] and how many arrangements reach it in
   [sc.stab]. *)
let rec enum_groups sc ~encode_perm n st gi =
  if gi = sc.n_groups then begin
    let e = encode_order sc ~encode_perm n st in
    if sc.stab = 0 then begin
      sc.best <- e;
      sc.stab <- 1
    end
    else
      let c = String.compare e sc.best in
      if c < 0 then begin
        sc.best <- e;
        sc.stab <- 1
      end
      else if c = 0 then sc.stab <- sc.stab + 1
  end
  else arrange sc ~encode_perm n st gi sc.group_lo.(gi)

and arrange sc ~encode_perm n st gi k =
  let hi = sc.group_hi.(gi) in
  if k >= hi then enum_groups sc ~encode_perm n st (gi + 1)
  else
    for j = k to hi do
      let t = sc.order.(k) in
      sc.order.(k) <- sc.order.(j);
      sc.order.(j) <- t;
      arrange sc ~encode_perm n st gi (k + 1);
      let t = sc.order.(k) in
      sc.order.(k) <- sc.order.(j);
      sc.order.(j) <- t
    done

let canonicalize ~sig_slot ~encode_perm ?stats ?(max_perms = default_max_perms)
    ~n st =
  let sc = Domain.DLS.get scratch_key in
  ensure sc n;
  let t0 = match stats with None -> 0 | Some _ -> now_ns () in
  for i = 0 to n - 1 do
    Buffer.clear sc.sbuf;
    sig_slot sc.sbuf st i;
    sc.sigs.(i) <- Buffer.contents sc.sbuf
  done;
  (* Insertion sort of the slot order by signature: n is small and the
     array is in scratch, so this beats a closure-driven Array.sort. *)
  for i = 0 to n - 1 do
    sc.order.(i) <- i
  done;
  for i = 1 to n - 1 do
    let x = sc.order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && String.compare sc.sigs.(sc.order.(!j)) sc.sigs.(x) > 0 do
      sc.order.(!j + 1) <- sc.order.(!j);
      decr j
    done;
    sc.order.(!j + 1) <- x
  done;
  (* Tie groups: runs of equal signatures in sorted order.  The number of
     candidate permutations is the product of the group factorials. *)
  sc.n_groups <- 0;
  let candidates = ref 1 in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while
      !j < n && String.equal sc.sigs.(sc.order.(!i)) sc.sigs.(sc.order.(!j))
    do
      incr j
    done;
    let len = !j - !i in
    if len > 1 then begin
      sc.group_lo.(sc.n_groups) <- !i;
      sc.group_hi.(sc.n_groups) <- !j - 1;
      sc.n_groups <- sc.n_groups + 1;
      (match stats with Some s -> record_tie s len | None -> ());
      let f = factorial len in
      candidates :=
        (if f = 0 || !candidates > max_perms / f then max_perms + 1
         else !candidates * f)
    end;
    i := !j
  done;
  let tied = sc.n_groups > 0 in
  sc.tried <- 0;
  let key =
    if not tied then begin
      (* All signatures distinct: the sorted order IS the canonical order,
         and distinct signatures rule out any non-trivial stabilizer. *)
      sc.last_orbit <- factorial n;
      encode_order sc ~encode_perm n st
    end
    else if !candidates > max_perms then begin
      (* Too many tied arrangements: keep the signature-sorted order as a
         deterministic (injective, hence sound) key and report the
         degradation instead of hiding it. *)
      (match stats with Some s -> bump s.st_fallbacks 1 | None -> ());
      sc.last_orbit <- 0;
      encode_order sc ~encode_perm n st
    end
    else begin
      sc.stab <- 0;
      enum_groups sc ~encode_perm n st 0;
      (* Candidates achieving the minimum are exactly the stabilizer of
         the canonical representative, so orbit size = n! / |stab|. *)
      let f = factorial n in
      sc.last_orbit <- (if f = 0 then 0 else f / sc.stab);
      sc.best
    end
  in
  (match stats with
  | Some s ->
    bump s.st_calls 1;
    if tied then bump s.st_tied_calls 1;
    bump s.st_perms_tried sc.tried;
    bump s.st_canon_ns (now_ns () - t0)
  | None -> ());
  key

let canonical_rv_fast ?stats ?max_perms (prog : Prog.t) st =
  canonicalize ~sig_slot:rv_sig ~encode_perm:Rendezvous.encode_perm ?stats
    ?max_perms ~n:prog.n st

let canonical_async_fast ?stats ?max_perms (prog : Prog.t) st =
  canonicalize ~sig_slot:async_sig ~encode_perm:Async.encode_perm ?stats
    ?max_perms ~n:prog.n st
