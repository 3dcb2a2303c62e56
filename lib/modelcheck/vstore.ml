(* Visited-state stores: the exact in-memory set, SPIN-style collapse
   compression and an out-of-core append-file store — all behind one
   record so the exploration engines stay store-agnostic. *)

type t = {
  add : string -> bool;
  mem_bytes : unit -> int;
  raw_bytes : unit -> int;
  count : unit -> int;
  iter_keys : (string -> unit) -> unit;
}

type kind = Mem | Collapse of (string -> int array) | Disk

let kind_name = function
  | Mem -> "mem"
  | Collapse _ -> "collapse"
  | Disk -> "disk"

(* Stable per-state bookkeeping figure used by the *raw* (uncompressed)
   byte count: what a plain interned store pays per state on top of the
   key bytes (hash slot, boxed string header, id).  Kept identical across
   store kinds so bench bytes/state comparisons share one baseline. *)
let per_state_overhead = 64

(* Honest accounting constant for [mem_bytes]: a stdlib hashtable
   bucket plus the boxed string header of an interned component. *)
let intern_entry_overhead = 48

(* ---- off-heap flat key set -----------------------------------------------

   The exact and collapse stores are one set of byte strings kept outside
   the OCaml heap.  The GC neither scans nor copies the visited set, so
   the major heap, which the GC sizes at about twice its live data, holds
   only the exploration's live states.  Keys are appended, length-
   prefixed, to chunked [Bigarray] arenas; the index is one [Bigarray] of
   packed ints.  Only a fresh key is copied in, so the caller's string
   dies young instead of being promoted.  The memory goes back to the C
   heap when the GC collects the store's bigarrays. *)

module A1 = Bigarray.Array1

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

external big_get64u : bigstring -> int -> int64 = "%caml_bigstring_get64u"

external big_set64u : bigstring -> int -> int64 -> unit
  = "%caml_bigstring_set64u"

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Chunked byte arena.  Chunks double from [chunk_min] up to [chunk_max]
   bytes, so a store that holds little (one of [par_run]'s 64 shards, a
   worker's table) costs little; a request larger than the next chunk
   gets a chunk of exactly its size.  Appends go to the last chunk only,
   so chunk order, then position within a chunk, is insertion order. *)
module Arena = struct
  type t = {
    mutable chunks : bigstring array;
    mutable fills : int array; (* bytes used in each chunk *)
    mutable starts : int array; (* each chunk's offset in the concatenation *)
    mutable n : int; (* chunks allocated *)
  }

  let chunk_min = 4096
  let chunk_max = 1 lsl 20
  let no_chunk : bigstring = A1.create Bigarray.char Bigarray.c_layout 0

  let create () = { chunks = [||]; fills = [||]; starts = [||]; n = 0 }

  (* The chunk to append [need] bytes to, at its fill mark: the last chunk
     when they fit there, else a new one. *)
  let reserve t need =
    let n = t.n in
    if n > 0 && t.fills.(n - 1) + need <= A1.dim t.chunks.(n - 1) then n - 1
    else begin
      let size =
        if n = 0 then chunk_min
        else min chunk_max (2 * A1.dim t.chunks.(n - 1))
      in
      let size = max size need in
      if n = Array.length t.chunks then begin
        let more = max 8 n in
        t.chunks <- Array.append t.chunks (Array.make more no_chunk);
        t.fills <- Array.append t.fills (Array.make more 0);
        t.starts <- Array.append t.starts (Array.make more 0)
      end;
      t.chunks.(n) <- A1.create Bigarray.char Bigarray.c_layout size;
      t.fills.(n) <- 0;
      t.starts.(n) <-
        (if n = 0 then 0 else t.starts.(n - 1) + A1.dim t.chunks.(n - 1));
      t.n <- n + 1;
      n
    end

  (* Bytes up to the fill mark of the last chunk: the arena's resident
     size (a chunk's untouched tail is not), and a figure that grows with
     every append. *)
  let used t = if t.n = 0 then 0 else t.starts.(t.n - 1) + t.fills.(t.n - 1)

  (* The chunk holding byte [g] of the concatenation of the chunks' used
     prefixes; only meaningful when every chunk is filled to its end, as
     fixed-size records that divide [chunk_min] leave them. *)
  let locate t g =
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.starts.(mid) <= g then lo := mid else hi := mid - 1
    done;
    !lo
end

(* One hash over the key bytes, read 8 at a time (the last word
   overlapping its predecessor), written once per storage so a key
   hashes the same in the caller's bytes and in the arena. *)
let[@inline] mix h w =
  let h = (h lxor w) * 0x2127599bf4325c37 in
  h lxor (h lsr 31)

let finish h =
  let h = (h lxor (h lsr 32)) * 0x165667b19e3779f9 in
  (h lxor (h lsr 29)) land max_int

let hash_bytes b len =
  let h = ref len in
  if len < 8 then
    for i = 0 to len - 1 do
      h := mix !h (Char.code (Bytes.unsafe_get b i))
    done
  else begin
    let i = ref 0 in
    while !i + 8 < len do
      h := mix !h (Int64.to_int (bytes_get64u b !i));
      i := !i + 8
    done;
    h := mix !h (Int64.to_int (bytes_get64u b (len - 8)))
  end;
  finish !h

let hash_big (a : bigstring) d len =
  let h = ref len in
  if len < 8 then
    for i = 0 to len - 1 do
      h := mix !h (Char.code (A1.unsafe_get a (d + i)))
    done
  else begin
    let i = ref 0 in
    while !i + 8 < len do
      h := mix !h (Int64.to_int (big_get64u a (d + !i)));
      i := !i + 8
    done;
    h := mix !h (Int64.to_int (big_get64u a (d + len - 8)))
  end;
  finish !h

(* [a.(d..d+len-1)] equals [b.(0..len-1)] *)
let equal_at (a : bigstring) d b len =
  if len < 8 then begin
    let i = ref 0 in
    while !i < len && A1.unsafe_get a (d + !i) = Bytes.unsafe_get b !i do
      incr i
    done;
    !i = len
  end
  else begin
    let i = ref 0 in
    while
      !i + 8 < len && (big_get64u a (d + !i) : int64) = bytes_get64u b !i
    do
      i := !i + 8
    done;
    !i + 8 >= len
    && (big_get64u a (d + len - 8) : int64) = bytes_get64u b (len - 8)
  end

let blit_to_big b (a : bigstring) d len =
  if len < 8 then
    for i = 0 to len - 1 do
      A1.unsafe_set a (d + i) (Bytes.unsafe_get b i)
    done
  else begin
    let i = ref 0 in
    while !i + 8 < len do
      big_set64u a (d + !i) (bytes_get64u b !i);
      i := !i + 8
    done;
    big_set64u a (d + len - 8) (bytes_get64u b (len - 8))
  end

(* LEB128, for the arena's length prefixes and the collapse store's
   component ids.  The encoding is minimal, so a value's size follows
   from the value. *)
let rec varint_size i = if i < 0x80 then 1 else 1 + varint_size (i lsr 7)

let rec put_varint b pos i =
  if i < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr i);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (i land 0x7f)));
    put_varint b (pos + 1) (i lsr 7)
  end

let rec put_varint_big (a : bigstring) pos i =
  if i < 0x80 then begin
    A1.unsafe_set a pos (Char.unsafe_chr i);
    pos + 1
  end
  else begin
    A1.unsafe_set a pos (Char.unsafe_chr (0x80 lor (i land 0x7f)));
    put_varint_big a (pos + 1) (i lsr 7)
  end

let rec varint_big (a : bigstring) pos shift acc =
  let c = Char.code (A1.unsafe_get a pos) in
  if c < 0x80 then acc lor (c lsl shift)
  else varint_big a (pos + 1) (shift + 7) (acc lor ((c land 0x7f) lsl shift))

let get_varint_big a pos = varint_big a pos 0 0

module Flatset = struct
  type t = {
    mutable index : ints; (* packed slots, 0 = empty *)
    mutable count : int;
    arena : Arena.t;
  }

  (* Slot layout, one int: 1 + (chunk lsl 40 lor pos lsl 20 lor tag).
     [pos]: the entry's position in its chunk, below 2^20 = [chunk_max]
     since a larger chunk holds one entry, at 0; [tag]: 20 high bits of
     the key's hash, which reject almost every false probe without
     touching the arena.  The index position comes from the low hash
     bits, so a resize rehashes the keys from the arena instead of
     keeping a second hash array. *)
  let tag_bits = 20
  let tag_mask = (1 lsl tag_bits) - 1
  let pos_mask = (1 lsl 20) - 1
  let tag_of h = (h lsr 40) land tag_mask
  let pack c pos tag = 1 + ((((c lsl 20) lor pos) lsl tag_bits) lor tag)

  let make_index slots : ints =
    let index = A1.create Bigarray.int Bigarray.c_layout slots in
    A1.fill index 0;
    index

  let create ~init_slots =
    { index = make_index init_slots; count = 0; arena = Arena.create () }

  (* [f c a pos d len] for every entry, in insertion order: chunk [c] =
     [a], entry at [pos], its [len] key bytes at [d]. *)
  let iter t f =
    let ar = t.arena in
    for c = 0 to ar.Arena.n - 1 do
      let a = ar.Arena.chunks.(c) and fill = ar.Arena.fills.(c) in
      let pos = ref 0 in
      while !pos < fill do
        let len = get_varint_big a !pos in
        let d = !pos + varint_size len in
        f c a !pos d len;
        pos := d + len
      done
    done

  let resize t =
    let index = make_index (2 * A1.dim t.index) in
    let mask = A1.dim index - 1 in
    iter t (fun c a pos d len ->
        let h = hash_big a d len in
        let j = ref (h land mask) in
        while A1.unsafe_get index !j <> 0 do
          j := (!j + 1) land mask
        done;
        A1.unsafe_set index !j (pack c pos (tag_of h)));
    t.index <- index

  let matches t s b len =
    let s = s - 1 in
    let a = t.arena.Arena.chunks.(s lsr (20 + tag_bits)) in
    let pos = (s lsr tag_bits) land pos_mask in
    let c = Char.code (A1.unsafe_get a pos) in
    let stored = if c < 0x80 then c else get_varint_big a pos in
    stored = len && equal_at a (pos + varint_size len) b len

  let insert t b len tag =
    let ar = t.arena in
    let need = varint_size len + len in
    let c = Arena.reserve ar need in
    let a = ar.Arena.chunks.(c) and pos = ar.Arena.fills.(c) in
    (* the writes below are unchecked *)
    assert (pos + need <= A1.dim a);
    let d = put_varint_big a pos len in
    blit_to_big b a d len;
    ar.Arena.fills.(c) <- d + len;
    pack c pos tag

  (* true when the key in [b.(0..len-1)] was absent (then inserted).
     Load factor 3/4: the tag keeps false probes off the arena. *)
  let add t b len =
    if 4 * t.count >= 3 * A1.dim t.index then resize t;
    let h = hash_bytes b len in
    let tag = tag_of h in
    let index = t.index in
    let mask = A1.dim index - 1 in
    let j = ref (h land mask) in
    let fresh = ref false and scanning = ref true in
    while !scanning do
      let s = A1.unsafe_get index !j in
      if s = 0 then begin
        A1.unsafe_set index !j (insert t b len tag);
        t.count <- t.count + 1;
        fresh := true;
        scanning := false
      end
      else if (s - 1) land tag_mask = tag && matches t s b len then
        scanning := false
      else j := (!j + 1) land mask
    done;
    !fresh

  let mem_bytes t = (8 * A1.dim t.index) + Arena.used t.arena
end

(* ---- exact in-memory store ---------------------------------------------

   The flat set over the raw key bytes. *)
let exact ?(init_slots = 4096) () =
  let t = Flatset.create ~init_slots in
  let key_bytes = ref 0 in
  {
    add =
      (fun key ->
        let len = String.length key in
        let fresh = Flatset.add t (Bytes.unsafe_of_string key) len in
        if fresh then key_bytes := !key_bytes + len;
        fresh);
    mem_bytes = (fun () -> Flatset.mem_bytes t);
    raw_bytes =
      (fun () -> !key_bytes + (per_state_overhead * t.Flatset.count));
    count = (fun () -> t.Flatset.count);
    iter_keys =
      (fun f ->
        Flatset.iter t (fun _ a _ d len ->
            f (String.init len (fun i -> A1.unsafe_get a (d + i)))));
  }

(* ---- component interning (shared with the collapse store) --------------- *)

module Intern = struct
  type t = {
    tbl : (string, int) Hashtbl.t;
    mutable rev : string array;
    mutable n : int;
    mutable str_bytes : int;
  }

  let create () =
    { tbl = Hashtbl.create 64; rev = Array.make 64 ""; n = 0; str_bytes = 0 }

  let id t s =
    match Hashtbl.find_opt t.tbl s with
    | Some i -> i
    | None ->
      let i = t.n in
      Hashtbl.add t.tbl s i;
      if i >= Array.length t.rev then begin
        let rev = Array.make (2 * Array.length t.rev) "" in
        Array.blit t.rev 0 rev 0 i;
        t.rev <- rev
      end;
      t.rev.(i) <- s;
      t.n <- i + 1;
      t.str_bytes <- t.str_bytes + String.length s;
      i

  let get t i =
    if i < 0 || i >= t.n then invalid_arg "Vstore.Intern.get: unknown id";
    t.rev.(i)

  let count t = t.n

  let mem_bytes t =
    t.str_bytes + (intern_entry_overhead * t.n) + (8 * Array.length t.rev)
end

(* ---- collapse-compressed store ------------------------------------------

   SPIN's collapse compression (Holzmann, "State compression in SPIN"):
   each state key is cut into per-component substrings (one per process /
   channel — the [split] function), every distinct component value is
   interned once per position, and the visited set stores only the tuple
   of small component ids.  Component values repeat massively across
   states (a remote cache's local view changes in few transitions), so
   tuples of 1-byte ids replace 50-200 byte keys.

   The tuples are LEB128 id strings in the same flat set as the exact
   store's keys: a stored state costs its tuple bytes (+1 length byte)
   plus one 8-byte index slot (at a load of 3/8 to 3/4), with no
   per-state boxed value.  Intern
   tables routinely exceed a few hundred entries per position, so the
   2-byte varint range matters: it is the difference between ~20-byte
   and ~40-byte tuples on the larger asynchronous instances. *)

(* One collapse store over a (possibly shared) intern layer.  [lock]
   guards the intern tables when several stores share them; the tuple set
   stays private to the store (the caller serializes per-store access, as
   the sharded engine's per-shard mutexes do).  [count_interns] lets
   exactly one store of a sharing group account for the intern memory. *)
let collapse_over ~init_slots ~split ~interns ~lock ~count_interns () =
  let tuples = Flatset.create ~init_slots in
  let scratch = ref (Bytes.create 256) in
  let raw = ref 0 in
  let locked f =
    match lock with
    | None -> f ()
    | Some m ->
      Mutex.lock m;
      let r = f () in
      Mutex.unlock m;
      r
  in
  let add key =
    let bounds = split key in
    let n_comp = Array.length bounds in
    if Bytes.length !scratch < 10 * n_comp then
      scratch := Bytes.create (2 * 10 * n_comp);
    let b = !scratch in
    let pos = ref 0 in
    locked (fun () ->
        (* one intern table per component position, sized on first use *)
        if Array.length !interns = 0 then
          interns := Array.init n_comp (fun _ -> Intern.create ())
        else if Array.length !interns <> n_comp then
          invalid_arg "Vstore.collapse: split returned inconsistent arity";
        let start = ref 0 in
        for c = 0 to n_comp - 1 do
          let stop = bounds.(c) in
          let id =
            Intern.id
              (Array.unsafe_get !interns c)
              (String.sub key !start (stop - !start))
          in
          pos := put_varint b !pos id;
          start := stop
        done;
        if !start <> String.length key then
          invalid_arg "Vstore.collapse: split did not cover the key");
    let fresh = Flatset.add tuples b !pos in
    if fresh then raw := !raw + String.length key + per_state_overhead;
    fresh
  in
  {
    add;
    mem_bytes =
      (fun () ->
        Flatset.mem_bytes tuples
        + (if count_interns then
             Array.fold_left
               (fun acc it -> acc + Intern.mem_bytes it)
               0 !interns
           else 0)
        + Bytes.length !scratch);
    raw_bytes = (fun () -> !raw);
    count = (fun () -> tuples.Flatset.count);
    iter_keys =
      (fun f ->
        (* tuples in insertion order; components concatenate back to the
           exact key (split covers the key), so this inverts [add] *)
        let buf = Buffer.create 256 in
        Flatset.iter tuples (fun _ a _ d len ->
            locked (fun () ->
                Buffer.clear buf;
                let pos = ref d and c = ref 0 in
                while !pos < d + len do
                  let id = get_varint_big a !pos in
                  Buffer.add_string buf (Intern.get !interns.(!c) id);
                  pos := !pos + varint_size id;
                  incr c
                done);
            f (Buffer.contents buf)));
  }

let collapse ?(init_slots = 1024) ~split () =
  collapse_over ~init_slots ~split ~interns:(ref [||]) ~lock:None
    ~count_interns:true ()

let collapse_shared ?(init_slots = 256) ~split n =
  let interns = ref [||] and lock = Some (Mutex.create ()) in
  Array.init n (fun i ->
      collapse_over ~init_slots ~split ~interns ~lock ~count_interns:(i = 0) ())

(* ---- out-of-core (append-file) store ------------------------------------

   Key bytes live in an unlinked temporary file (appended through a small
   tail buffer); RAM holds only an open-addressing index of packed
   (offset, length) words plus the key hashes.  It is exact: a hash hit
   is confirmed by reading the stored key back and comparing bytes, so
   counts equal the in-memory store's. *)
module Diskset = struct
  (* Index slot layout, one OCaml int per slot:
       0                              — empty
       1 + (off << 20 | tag << 12 | lenfield)
     [off]: byte offset of the key in the file (42 bits, 4 TB);
     [tag]: 8 high bits of the key's hash, rejecting almost all false
     probes without touching the file; [lenfield]: key length, values
     >= 0xfff overflowing into [long_lens].  No per-slot hash word: a
     resize re-reads each stored key once to rehash it — sequential-ish,
     page-cache-friendly I/O, paid O(log n) times — which halves the
     resident index to 8 bytes per slot. *)
  type t = {
    fd : Unix.file_descr;
    mutable file_len : int; (* bytes flushed to [fd] *)
    tail : Buffer.t; (* appended keys not yet flushed *)
    tail_cap : int;
    mutable packed : int array;
    mutable count : int;
    mutable key_bytes : int;
    long_lens : (int, int) Hashtbl.t; (* off -> true len when >= 0xfff *)
    mutable read_buf : Bytes.t;
  }

  let create ?path ~init_slots ~tail_cap () =
    let fd =
      match path with
      | None ->
        (* anonymous: unlinked immediately, vanishes with the process *)
        let p = Filename.temp_file "ccr_vstore" ".keys" in
        let fd = Unix.openfile p [ Unix.O_RDWR ] 0o600 in
        Unix.unlink p;
        fd
      | Some p ->
        (* named: persists on disk so an external checkpoint/reopen flow
           can point at a stable file instead of a vanishing temp *)
        Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let t =
      {
        fd;
        file_len = 0;
        tail = Buffer.create (min tail_cap 65536);
        tail_cap;
        packed = Array.make init_slots 0;
        count = 0;
        key_bytes = 0;
        long_lens = Hashtbl.create 16;
        read_buf = Bytes.create 256;
      }
    in
    (* the store owns the descriptor and nothing else can reach it; a
       dropped store must give the fd back or a long-lived process (the
       serve daemon, a fuzz campaign) exhausts the fd table *)
    Gc.finalise (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) t;
    t

  let tag_of h = (h lsr 22) land 0xff

  let pack ~off ~tag ~lenfield = ((off lsl 20) lor (tag lsl 12) lor lenfield) + 1

  let flush t =
    let s = Buffer.contents t.tail in
    Buffer.clear t.tail;
    let len = String.length s in
    ignore (Unix.lseek t.fd t.file_len Unix.SEEK_SET);
    let written = ref 0 in
    while !written < len do
      written :=
        !written + Unix.write_substring t.fd s !written (len - !written)
    done;
    t.file_len <- t.file_len + len

  let entry_len t off lenfield =
    if lenfield < 0xfff then lenfield else Hashtbl.find t.long_lens off

  (* Copy the [len] stored bytes at [off] into [t.read_buf]. *)
  let read_stored t off len =
    if Bytes.length t.read_buf < len then t.read_buf <- Bytes.create (2 * len);
    if off >= t.file_len then
      (* still in the tail buffer *)
      Buffer.blit t.tail (off - t.file_len) t.read_buf 0 len
    else begin
      ignore (Unix.lseek t.fd off Unix.SEEK_SET);
      let got = ref 0 in
      while !got < len do
        let r = Unix.read t.fd t.read_buf !got (len - !got) in
        if r = 0 then invalid_arg "Vstore.disk: truncated store file";
        got := !got + r
      done
    end

  let stored_matches t off key =
    let len = String.length key in
    read_stored t off len;
    let i = ref 0 in
    while !i < len && Bytes.unsafe_get t.read_buf !i = String.unsafe_get key !i
    do
      incr i
    done;
    !i = len

  let resize t =
    let old = t.packed in
    let cap = 2 * Array.length old in
    let mask = cap - 1 in
    let packed = Array.make cap 0 in
    Array.iter
      (fun p ->
        if p <> 0 then begin
          let off = (p - 1) lsr 20 in
          let len = entry_len t off ((p - 1) land 0xfff) in
          read_stored t off len;
          let h =
            Hashtbl.seeded_hash 3 (Bytes.sub_string t.read_buf 0 len)
          in
          let j = ref (h land mask) in
          while packed.(!j) <> 0 do
            j := (!j + 1) land mask
          done;
          packed.(!j) <- p
        end)
      old;
    t.packed <- packed

  let add t key =
    if 2 * t.count >= Array.length t.packed then resize t;
    let len = String.length key in
    let h = Hashtbl.seeded_hash 3 key in
    let tag = tag_of h in
    let mask = Array.length t.packed - 1 in
    let j = ref (h land mask) in
    let fresh = ref false and scanning = ref true in
    while !scanning do
      let p = t.packed.(!j) in
      if p = 0 then begin
        let off = t.file_len + Buffer.length t.tail in
        Buffer.add_string t.tail key;
        if Buffer.length t.tail >= t.tail_cap then flush t;
        let lenfield = min len 0xfff in
        if lenfield = 0xfff then Hashtbl.replace t.long_lens off len;
        t.packed.(!j) <- pack ~off ~tag ~lenfield;
        t.count <- t.count + 1;
        t.key_bytes <- t.key_bytes + len;
        fresh := true;
        scanning := false
      end
      else begin
        let p = p - 1 in
        let off = p lsr 20 in
        if
          (p lsr 12) land 0xff = tag
          && entry_len t off (p land 0xfff) = len
          && stored_matches t off key
        then scanning := false
        else j := (!j + 1) land mask
      end
    done;
    !fresh

  let mem_bytes t =
    (8 * Array.length t.packed)
    + Buffer.length t.tail
    + (intern_entry_overhead * Hashtbl.length t.long_lens)
    + Bytes.length t.read_buf
end

let disk ?path ?(init_slots = 1024) ?(tail_cap = 1 lsl 16) () =
  let t = Diskset.create ?path ~init_slots ~tail_cap () in
  {
    add = (fun key -> Diskset.add t key);
    mem_bytes = (fun () -> Diskset.mem_bytes t);
    raw_bytes =
      (fun () -> t.Diskset.key_bytes + (per_state_overhead * t.Diskset.count));
    count = (fun () -> t.Diskset.count);
    iter_keys =
      (fun f ->
        (* The index knows (offset, length); visiting offsets in
           ascending order replays insertion order, so serialized
           checkpoints are deterministic for a given exploration. *)
        let entries = ref [] in
        Array.iter
          (fun p ->
            if p <> 0 then begin
              let off = (p - 1) lsr 20 in
              entries := (off, Diskset.entry_len t off ((p - 1) land 0xfff))
                         :: !entries
            end)
          t.Diskset.packed;
        let entries = List.sort compare !entries in
        List.iter
          (fun (off, len) ->
            Diskset.read_stored t off len;
            f (Bytes.sub_string t.Diskset.read_buf 0 len))
          entries);
  }

let make ?init_slots ?tail_cap = function
  | Mem -> exact ?init_slots ()
  | Collapse split -> collapse ?init_slots ~split ()
  | Disk -> disk ?init_slots ?tail_cap ()

(* ---- provenance side-table ----------------------------------------------

   Optional per-state provenance: for each visited state id (dense, in
   discovery order) the parent state's id and the ordinal of the fired
   transition within the parent's successor list.  One packed word per
   state — [parent lsl 16 lor (ord + 1)], the root stored with
   pseudo-ordinal -1 — either in an off-heap chunked arena like the flat
   set's ([P_mem]) or as 8-byte little-endian records appended to an
   unlinked temporary file through a tail buffer ([P_disk], the Diskset
   discipline), so the table stays out-of-core alongside
   [--store disk].  No labels are stored: replaying the i-th recorded
   ordinal against the current state's successor list recovers the label
   exactly, which turns counterexample reconstruction into an O(depth)
   chain walk plus one successor expansion per step instead of a
   sequential re-exploration. *)
module Prov = struct
  type pkind = P_mem | P_disk

  let pkind_name = function P_mem -> "mem" | P_disk -> "disk"

  let ord_bits = 16
  let ord_mask = (1 lsl ord_bits) - 1

  type disk_state = {
    fd : Unix.file_descr;
    mutable file_len : int; (* bytes flushed to [fd] *)
    tail : Buffer.t; (* records not yet flushed *)
    tail_cap : int;
    read_buf : Bytes.t; (* one 8-byte record *)
  }

  (* records are 8 bytes, which divides every chunk size, so chunks fill
     to their end and [Arena.locate] finds a record's chunk *)
  type backend = Chunks of Arena.t | File of disk_state

  type t = { mutable n : int; backend : backend }

  let create ?(kind = P_mem) ?(tail_cap = 1 lsl 16) () =
    let backend =
      match kind with
      | P_mem -> Chunks (Arena.create ())
      | P_disk ->
        let path = Filename.temp_file "ccr_prov" ".log" in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
        (* unlinked immediately: the file vanishes with the process *)
        Unix.unlink path;
        let ds =
          {
            fd;
            file_len = 0;
            tail = Buffer.create (min tail_cap 65536);
            tail_cap;
            read_buf = Bytes.create 8;
          }
        in
        (* same ownership story as Diskset: reclaim the fd with the table *)
        Gc.finalise
          (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
          ds;
        File ds
    in
    { n = 0; backend }

  let flush d =
    let s = Buffer.contents d.tail in
    Buffer.clear d.tail;
    let len = String.length s in
    ignore (Unix.lseek d.fd d.file_len Unix.SEEK_SET);
    let written = ref 0 in
    while !written < len do
      written :=
        !written + Unix.write_substring d.fd s !written (len - !written)
    done;
    d.file_len <- d.file_len + len

  let record t ~id ~parent ~ord =
    if id <> t.n then
      invalid_arg "Vstore.Prov.record: ids must arrive densely in order";
    if ord < -1 || ord >= ord_mask then
      invalid_arg "Vstore.Prov.record: ordinal out of range";
    if parent < 0 || (parent >= id && ord >= 0) then
      invalid_arg "Vstore.Prov.record: parent must precede the state";
    let w = (parent lsl ord_bits) lor (ord + 1) in
    (match t.backend with
    | Chunks ar ->
      let c = Arena.reserve ar 8 in
      let pos = ar.Arena.fills.(c) in
      big_set64u ar.Arena.chunks.(c) pos (Int64.of_int w);
      ar.Arena.fills.(c) <- pos + 8
    | File d ->
      Bytes.set_int64_le d.read_buf 0 (Int64.of_int w);
      Buffer.add_bytes d.tail d.read_buf;
      if Buffer.length d.tail >= d.tail_cap then flush d);
    t.n <- t.n + 1

  let entry t id =
    if id < 0 || id >= t.n then invalid_arg "Vstore.Prov.entry: unknown id";
    let w =
      match t.backend with
      | Chunks ar ->
        let c = Arena.locate ar (8 * id) in
        Int64.to_int
          (big_get64u ar.Arena.chunks.(c) ((8 * id) - ar.Arena.starts.(c)))
      | File d ->
        let off = 8 * id in
        if off >= d.file_len then
          Buffer.blit d.tail (off - d.file_len) d.read_buf 0 8
        else begin
          ignore (Unix.lseek d.fd off Unix.SEEK_SET);
          let got = ref 0 in
          while !got < 8 do
            let r = Unix.read d.fd d.read_buf !got (8 - !got) in
            if r = 0 then
              invalid_arg "Vstore.Prov: truncated provenance file";
            got := !got + r
          done
        end;
        Int64.to_int (Bytes.get_int64_le d.read_buf 0)
    in
    (w lsr ord_bits, (w land ord_mask) - 1)

  (* Ordinals along the chain from the root to [id], root first; the
     root's own pseudo-ordinal is not included. *)
  let chain t id =
    let rec up id acc =
      let parent, ord = entry t id in
      if ord < 0 then acc else up parent (ord :: acc)
    in
    up id []

  let count t = t.n

  let mem_bytes t =
    match t.backend with
    | Chunks ar -> Arena.used ar
    | File d -> Buffer.length d.tail + Bytes.length d.read_buf + 64

  let bytes t = 8 * t.n
end
