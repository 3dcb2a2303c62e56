type 's canon = {
  canon_key : 's -> string;
  canon_fresh : ('s -> unit) option;
  canon_fallbacks : unit -> int;
}

type ('s, 'l) system = {
  init : 's;
  succ : 's -> ('l * 's) list;
  encode : 's -> string;
  canon : 's canon option;
}

(* Visited-set key function and fresh-state callback: under symmetry
   reduction states are deduplicated by canonical key while the concrete
   state flows on to successor generation and traces. *)
let key_fns sys =
  match sys.canon with
  | None -> (sys.encode, (fun _ -> ()), fun () -> 0)
  | Some c ->
    ( c.canon_key,
      (match c.canon_fresh with None -> fun _ -> () | Some f -> f),
      c.canon_fallbacks )

type limit = L_states | L_memory | L_time | L_interrupt

type 's outcome =
  | Complete
  | Limit of limit
  | Violation of { invariant : string; state : 's }
  | Deadlock of 's

type ('s, 'l) stats = {
  outcome : 's outcome;
  states : int;
  transitions : int;
  time_s : float;
  mem_bytes : int;
  raw_bytes : int;
  peak_frontier : int;
  max_depth : int;
  canon_fallbacks : int;
  trace : ('l option * 's) list option;
}

(* ---- checkpoint control ---------------------------------------------------

   The engines know nothing about checkpoint files; they expose resumable
   points through this control record.  A frontier entry is
   [(id, depth, resume_ord, state)]: the state's visited id, its BFS
   depth, and the successor ordinal expansion should resume from (0
   everywhere except the sequential engine's in-flight state at a
   mid-level cap).  [ck_save] fires at every BFS level boundary — the
   moment every state of the frontier's depth is discovered and none is
   expanded — and once more with [v_final = true] when the engine stops
   at a resource cap or an interrupt; the callback (the [Ckpt] layer)
   decides whether to actually write. *)

type 's ckpt_view = {
  v_states : int;
  v_transitions : int;
  v_depth : int;
  v_final : bool;
  v_frontier : unit -> (int * int * int * 's) array;
  v_iter_keys : (string -> unit) -> unit;
}

type 's ckpt_resume = {
  r_states : int;
  r_transitions : int;
  r_frontier : (int * int * int * 's) array;
  r_keys : (string -> unit) -> unit;
}

type 's ckpt = {
  ck_resume : 's ckpt_resume option;
  ck_save : 's ckpt_view -> unit;
}

(* Reconstruct the path to state [id] from a provenance table: walk the
   parent chain (O(depth) packed-slot reads), then replay the recorded
   successor ordinals from the initial state.  Exact — each ordinal pins
   one concrete transition, so the labels and intermediate states are the
   ones the engine traversed, including under symmetry reduction (the
   replayed states are the concrete representatives the engine
   expanded). *)
let replay_path prov sys id =
  let rec go st ords acc =
    match ords with
    | [] -> List.rev acc
    | ord :: rest -> (
      match List.nth_opt (sys.succ st) ord with
      | Some (label, st') -> go st' rest ((Some label, st') :: acc)
      | None -> invalid_arg "Explore.replay_path: stale provenance ordinal")
  in
  go sys.init (Vstore.Prov.chain prov id) [ (None, sys.init) ]

(* Traces come from a provenance table: the caller's, or an internal
   resident one (8 bytes per state) — visited states are never kept.  A
   resumed run's ids continue from the checkpoint, so only a table
   restored alongside it can take them. *)
let trace_prov ~engine ~trace prov ckpt =
  match (prov, ckpt) with
  | Some _, _ -> prov
  | None, _ when not trace -> None
  | None, Some { ck_resume = Some _; _ } ->
    invalid_arg
      (engine
     ^ ": ~trace:true on a resumed checkpoint needs the checkpoint's \
        provenance table; pass it as ~prov")
  | None, _ -> Some (Vstore.Prov.create ())

let prov_recorder = function
  | Some p -> fun ~id ~parent ~ord -> Vstore.Prov.record p ~id ~parent ~ord
  | None -> fun ~id:_ ~parent:_ ~ord:_ -> ()

let run ?(store = Vstore.Mem) ?max_states ?max_mem_bytes ?max_time_s
    ?(check_deadlock = false) ?(trace = false) ?(invariants = []) ?on_progress
    ?(progress_every = 8192) ?prov ?on_level ?interrupt ?ckpt sys =
  let t0 = Unix.gettimeofday () in
  let key_of, on_fresh, canon_fallbacks = key_fns sys in
  let store = Vstore.make store in
  let prov = trace_prov ~engine:"Explore.run" ~trace prov ckpt in
  let prov_record = prov_recorder prov in
  let emit_level =
    match on_level with
    | Some f -> f
    | None -> fun ~depth:_ ~states:_ -> ()
  in
  let n_states = ref 0 in
  let frontier = Queue.create () in
  let n_transitions = ref 0 in
  let frontier_len = ref 0 in
  let peak_frontier = ref 0 in
  let max_depth = ref 0 in
  let finished = ref None in
  let bad_id = ref 0 in
  let finish ?id o =
    if !finished = None then begin
      finished := Some o;
      match id with Some id -> bad_id := id | None -> ()
    end
  in
  let violated st =
    List.find_opt (fun (_, check) -> not (check st)) invariants
  in
  let emit_progress =
    match on_progress with
    | None -> fun _ -> ()
    | Some f ->
      fun depth ->
        if !n_states mod progress_every = 0 then begin
          let elapsed = Unix.gettimeofday () -. t0 in
          f
            {
              Ccr_obs.Progress.states = !n_states;
              transitions = !n_transitions;
              depth;
              frontier = !frontier_len;
              rate =
                (if elapsed > 0. then float_of_int !n_states /. elapsed
                 else 0.);
              mem_bytes = store.Vstore.mem_bytes ();
              shard_balance = 1.0;
              elapsed_s = elapsed;
            }
        end
  in
  let discover st parent ~ord ~depth =
    let key = key_of st in
    if store.Vstore.add key then begin
      on_fresh st;
      let id = !n_states in
      prov_record ~id ~parent ~ord;
      if depth > !max_depth then begin
        (* first state of a deeper level: the previous level is complete *)
        emit_level ~depth:(depth - 1) ~states:!n_states;
        max_depth := depth
      end;
      incr n_states;
      (match violated st with
      | Some (name, _) ->
        finish ~id (Violation { invariant = name; state = st })
      | None -> ());
      (match (max_states, max_mem_bytes) with
      | Some cap, _ when !n_states >= cap -> finish (Limit L_states)
      | _, Some cap when store.Vstore.mem_bytes () >= cap ->
        finish (Limit L_memory)
      | _ -> ());
      Queue.push (st, id, depth) frontier;
      incr frontier_len;
      if !frontier_len > !peak_frontier then peak_frontier := !frontier_len;
      emit_progress depth
    end
  in
  let ck_save ~final ~head () =
    match ckpt with
    | None -> ()
    | Some c ->
      c.ck_save
        {
          v_states = !n_states;
          v_transitions = !n_transitions;
          v_depth = !max_depth;
          v_final = final;
          v_frontier =
            (fun () ->
              let rest =
                Seq.map (fun (st, id, d) -> (id, d, 0, st))
                  (Queue.to_seq frontier)
              in
              Array.of_seq
                (match head with
                | Some (st, id, d, o) -> Seq.cons (id, d, o, st) rest
                | None -> rest));
          v_iter_keys = store.Vstore.iter_keys;
        }
  in
  (* With an [ord] skip marker a resumed in-flight state re-expands only
     the successors the interrupted run never traversed, so transition
     counts continue exactly where the checkpoint left them. *)
  let pending_skip = ref None in
  (match ckpt with
  | Some { ck_resume = Some r; _ } ->
    r.r_keys (fun k -> ignore (store.Vstore.add k));
    n_states := r.r_states;
    n_transitions := r.r_transitions;
    Array.iter
      (fun (id, d, o, st) ->
        if d > !max_depth then max_depth := d;
        if o > 0 then pending_skip := Some (id, o);
        Queue.push (st, id, d) frontier;
        incr frontier_len)
      r.r_frontier;
    peak_frontier := !frontier_len
  | _ -> discover sys.init 0 ~ord:(-1) ~depth:0);
  let last_depth = ref 0 in
  let inflight = ref None in
  while (not (Queue.is_empty frontier)) && !finished = None do
    let st, id, depth = Queue.pop frontier in
    decr frontier_len;
    let start_ord =
      match !pending_skip with
      | Some (sid, o) when sid = id ->
        pending_skip := None;
        o
      | _ -> 0
    in
    if ckpt <> None then begin
      (* first pop of a deeper level: every state of that level is
         discovered and none expanded — the resumable boundary *)
      if depth > !last_depth then
        ck_save ~final:false ~head:(Some (st, id, depth, start_ord)) ();
      inflight := Some (st, id, depth, start_ord)
    end;
    last_depth := depth;
    (* Consult the time cap before every expansion: a throttled check (the
       old every-256-pops scheme) lets a batch of slow [succ] calls
       overshoot the cap by seconds on the asynchronous protocols. *)
    (match max_time_s with
    | Some cap when Unix.gettimeofday () -. t0 > cap ->
      finish (Limit L_time)
    | _ -> ());
    (match interrupt with
    | Some f when f () -> finish (Limit L_interrupt)
    | _ -> ());
    if !finished = None then begin
      let succs = sys.succ st in
      if check_deadlock && succs = [] then finish ~id (Deadlock st);
      List.iteri
        (fun ord (_, st') ->
          if ord >= start_ord && !finished = None then begin
            incr n_transitions;
            discover st' id ~ord ~depth:(depth + 1);
            if ckpt <> None && !finished <> None then
              inflight := Some (st, id, depth, ord + 1)
          end)
        succs
    end
  done;
  let outcome = match !finished with Some o -> o | None -> Complete in
  (match outcome with
  | Limit _ ->
    (* the last chance to persist work before reporting a cap or an
       interrupt: the in-flight state (with its resume ordinal) plus the
       unexpanded queue is exactly the run's remaining obligation *)
    ck_save ~final:true ~head:!inflight ()
  | Complete | Violation _ | Deadlock _ -> ());
  let trace_path =
    match (outcome, prov) with
    | (Violation _ | Deadlock _), Some p when trace ->
      Some (replay_path p sys !bad_id)
    | _ -> None
  in
  {
    outcome;
    states = !n_states;
    transitions = !n_transitions;
    time_s = Unix.gettimeofday () -. t0;
    mem_bytes = store.Vstore.mem_bytes ();
    raw_bytes = store.Vstore.raw_bytes ();
    peak_frontier = !peak_frontier;
    max_depth = !max_depth;
    canon_fallbacks = canon_fallbacks ();
    trace = trace_path;
  }

(* ---- parallel exploration (OCaml 5 domains) ------------------------------ *)

(* Shard routing uses its own hash seed, independent of the exact store's
   probe hash (seed 0); the low [shard_bits] of the hash pick the shard. *)
let shard_seed = 2
let shard_bits = 6
let n_shards = 1 lsl shard_bits

(* A successor's discovery tag packs its parent's frontier index and its
   ordinal in the parent's successor list, so that integer order on tags
   is the order the sequential engine discovers successors in. *)
let ord_bits = 24
let ord_mask = (1 lsl ord_bits) - 1

(* Index of the first invariant [st] violates, or -1. *)
let first_violated invariants st =
  let rec go i = function
    | [] -> -1
    | (_, check) :: rest -> if check st then go (i + 1) rest else i
  in
  go 0 invariants

(* The level table of one shard: the keys the shard first saw in the BFS
   level being discovered.  Per key it keeps the smallest discovery tag
   seen so far, the concrete state discovered under that tag — exactly
   the candidate the sequential engine keeps, whichever domain reached
   the key first — and the first invariant that state violates (-1:
   none, or not checked yet).  An open-addressing index over the entries
   is probed with the shard-routing hash, so a lookup costs no second
   hash of the key. *)
module Level = struct
  type 's t = {
    mutable index : int array;  (** entry + 1; 0 = empty slot *)
    mutable keys : string array;
    mutable hashes : int array;
    mutable tags : int array;
    mutable sts : 's array;
    mutable bad : int array;
    mutable n : int;
  }

  let create () =
    {
      index = Array.make 16 0;
      keys = [||];
      hashes = [||];
      tags = [||];
      sts = [||];
      bad = [||];
      n = 0;
    }

  let slot index h = (h lsr shard_bits) land (Array.length index - 1)

  (* the entry holding [key], or -1 *)
  let find t h key =
    let mask = Array.length t.index - 1 in
    let rec probe j =
      let e = t.index.(j) - 1 in
      if e < 0 then -1
      else if t.hashes.(e) = h && String.equal t.keys.(e) key then e
      else probe ((j + 1) land mask)
    in
    probe (slot t.index h)

  let link index h e =
    let mask = Array.length index - 1 in
    let j = ref (slot index h) in
    while index.(!j) <> 0 do
      j := (!j + 1) land mask
    done;
    index.(!j) <- e + 1

  (* a new entry, its invariants not yet checked; returns its index *)
  let add t h key tag st =
    let e = t.n in
    if e = Array.length t.tags then begin
      let grow a fill =
        let b = Array.make (max 16 (2 * e)) fill in
        Array.blit a 0 b 0 e;
        b
      in
      t.keys <- grow t.keys "";
      t.hashes <- grow t.hashes 0;
      t.tags <- grow t.tags 0;
      t.sts <- grow t.sts st;
      t.bad <- grow t.bad 0
    end;
    t.keys.(e) <- key;
    t.hashes.(e) <- h;
    t.tags.(e) <- tag;
    t.sts.(e) <- st;
    t.bad.(e) <- -1;
    t.n <- e + 1;
    if 2 * t.n > Array.length t.index then begin
      t.index <- Array.make (2 * Array.length t.index) 0;
      for e = 0 to t.n - 1 do
        link t.index t.hashes.(e) e
      done
    end
    else link t.index h e;
    e

  (* forget the level, keeping the arrays for the next one *)
  let clear t filler =
    Array.fill t.index 0 (Array.length t.index) 0;
    Array.fill t.keys 0 t.n "";
    Array.fill t.sts 0 t.n filler;
    t.n <- 0
end

type 's shard = { lock : Mutex.t; store : Vstore.t; level : 's Level.t }

(* A reusable rendezvous point for [jobs] domains.  Phase counting makes it
   safe to reuse back-to-back (a fast domain cannot lap a slow one). *)
let make_barrier jobs =
  let lock = Mutex.create () and cond = Condition.create () in
  let count = ref 0 and phase = ref 0 in
  fun () ->
    Mutex.lock lock;
    let my = !phase in
    incr count;
    if !count = jobs then begin
      count := 0;
      incr phase;
      Condition.broadcast cond
    end
    else
      while !phase = my do
        Condition.wait cond lock
      done;
    Mutex.unlock lock

let par_run ?jobs ?(store = Vstore.Mem) ?max_states ?max_mem_bytes
    ?max_time_s ?(check_deadlock = false) ?(trace = false) ?(invariants = [])
    ?on_progress ?prov ?on_level ?interrupt ?ckpt sys =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let t0 = Unix.gettimeofday () in
  let key_of, on_fresh, canon_fallbacks = key_fns sys in
  let prov = trace_prov ~engine:"Explore.par_run" ~trace prov ckpt in
  let prov_record = prov_recorder prov in
  (* Sharded visited set: [n_shards] independent stores, each behind its own
     mutex; states route to a shard by a seeded hash of the encoded key, so
     two domains only contend when they discover states that share a shard.
     Shards start with small index tables and tail buffers: mem_bytes is
     honest about table overhead, so 64 eagerly-sized shards would eat a
     small memory cap up front. *)
  let stores =
    match store with
    | Vstore.Collapse split ->
      (* shared intern layer: per-shard tables would multiply the
         component-table memory by the shard count *)
      Vstore.collapse_shared ~init_slots:256 ~split n_shards
    | Vstore.Mem | Vstore.Disk ->
      Array.init n_shards (fun _ ->
          Vstore.make ~init_slots:256 ~tail_cap:8192 store)
  in
  let shards =
    Array.map
      (fun store -> { lock = Mutex.create (); store; level = Level.create () })
      stores
  in
  let hash key = Hashtbl.seeded_hash shard_seed key in
  let shard_of h = shards.(h land (n_shards - 1)) in
  (* Keys equal without a [canon] hook mean equal states (the encoding is
     injective), so only under a canonical key does a smaller tag bring a
     new representative, whose invariants need checking. *)
  let recheck = sys.canon <> None in
  (* Under the shard lock: offer the key, and return the level entry
     [st] now holds and whose invariants are unchecked, or -1. *)
  let offer sh h key tag st =
    let lv = sh.level in
    if sh.store.Vstore.add key then Level.add lv h key tag st
    else
      let e = Level.find lv h key in
      if e >= 0 && tag < lv.Level.tags.(e) then begin
        lv.Level.tags.(e) <- tag;
        if recheck then begin
          lv.Level.sts.(e) <- st;
          lv.Level.bad.(e) <- -1;
          e
        end
        else -1
      end
      else -1
  in
  let shard_offer key tag st =
    let h = hash key in
    let sh = shard_of h in
    Mutex.lock sh.lock;
    let e =
      match offer sh h key tag st with
      | e ->
        Mutex.unlock sh.lock;
        e
      | exception x ->
        Mutex.unlock sh.lock;
        raise x
    in
    (* The invariants run outside the lock (a blocked domain sleeps);
       a violation is recorded only while [st] still holds its entry.
       A smaller tag may have claimed the entry meanwhile: without
       [recheck] it keeps [st], so the verdict stands; with it, it brings
       its own state, which its offerer checks. *)
    if e >= 0 then begin
      let b = first_violated invariants st in
      if b >= 0 then begin
        Mutex.lock sh.lock;
        if sh.level.Level.sts.(e) == st then sh.level.Level.bad.(e) <- b;
        Mutex.unlock sh.lock
      end
    end
  in
  let total_bytes () =
    Array.fold_left (fun acc sh -> acc + sh.store.Vstore.mem_bytes ()) 0 shards
  in
  let total_raw () =
    Array.fold_left (fun acc sh -> acc + sh.store.Vstore.raw_bytes ()) 0 shards
  in
  (* Cooperative stop flag, polled by every domain between expansions. *)
  let stop = Atomic.make false in
  let timed_out = Atomic.make false in
  let intr = Atomic.make false in
  let exn_lock = Mutex.create () in
  let worker_exn = ref None in
  let record_exn exn bt =
    Mutex.lock exn_lock;
    if !worker_exn = None then worker_exn := Some (exn, bt);
    Mutex.unlock exn_lock;
    Atomic.set stop true
  in
  let guarded f =
    (* exceptions must not break out of the barrier protocol: record,
       stop everyone, re-raise after the join *)
    try f () with exn -> record_exn exn (Printexc.get_raw_backtrace ())
  in
  (* Level-synchronous BFS.  All domains drain the current frontier in
     batches claimed off an atomic cursor, offering each successor to its
     shard with its discovery tag (the shard keeps the smallest tag per
     new key, and checks the invariants on the state it keeps).  At the
     level boundary the leader (domain 0) orders the level's new states
     by tag — the sequential engine's discovery order — assigns their
     ids, records provenance, picks the sequential-first violation or
     deadlock and applies the caps.  So the frontier, ids,
     representatives and the reported event are the sequential engine's
     at any job count. *)
  let frontier = ref [| sys.init |] in
  (* successor count of each frontier index: the transitions the
     sequential engine takes before a given event *)
  let nsucc = ref [| 0 |] in
  let cursor = Atomic.make 0 in
  let batch = 32 in
  let dead_idx = Array.make jobs max_int in
  let n_states = ref 0 in
  let n_trans = ref 0 in
  let event = ref None in
  let limit_hit = ref None in
  let keep_going = ref true in
  let cur_depth = ref 0 in
  let peak_frontier = ref 1 in
  let barrier = make_barrier jobs in
  (* Only the leader emits progress, at level boundaries, when every
     other domain is parked at the barrier. *)
  let emit_progress () =
    match on_progress with
    | None -> ()
    | Some f ->
      let total = !n_states in
      let maxc =
        Array.fold_left (fun m sh -> max m (sh.store.Vstore.count ())) 0 shards
      in
      let balance =
        if total = 0 then 1.0
        else float_of_int (maxc * n_shards) /. float_of_int total
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      f
        {
          Ccr_obs.Progress.states = total;
          transitions = !n_trans;
          depth = !cur_depth;
          frontier = Array.length !frontier;
          rate = (if elapsed > 0. then float_of_int total /. elapsed else 0.);
          mem_bytes = total_bytes ();
          shard_balance = balance;
          elapsed_s = elapsed;
        }
  in
  let expand wid i st =
    (* same cap discipline as the sequential engine: consult the clock
       before every expansion *)
    (match max_time_s with
    | Some cap when Unix.gettimeofday () -. t0 > cap ->
      Atomic.set timed_out true;
      Atomic.set stop true
    | _ -> ());
    (match interrupt with
    | Some f when f () ->
      Atomic.set intr true;
      Atomic.set stop true
    | _ -> ());
    if not (Atomic.get stop) then begin
      let succs = sys.succ st in
      if check_deadlock && succs = [] && i < dead_idx.(wid) then
        dead_idx.(wid) <- i;
      let n =
        List.fold_left
          (fun ord (_, st') ->
            if ord > ord_mask then
              invalid_arg "Explore.par_run: successor ordinal out of range";
            shard_offer (key_of st') ((i lsl ord_bits) lor ord) st';
            ord + 1)
          0 succs
      in
      !nsucc.(i) <- n
    end
  in
  let iter_level f =
    Array.iter
      (fun sh ->
        let lv = sh.level in
        for e = 0 to lv.Level.n - 1 do
          f lv e
        done)
      shards
  in
  (* The level boundary, in the leader. *)
  let merge_level () =
    let f = !frontier and counts = !nsucc in
    let len = Array.length f in
    let base_cur = !n_states - len in
    (* Order the level by tag: a counting sort on the parent index, then
       an insertion sort, which only ever moves an entry within its
       parent's few children. *)
    let starts = Array.make (len + 1) 0 in
    let first_viol = ref None in
    iter_level (fun lv e ->
        let t = lv.Level.tags.(e) in
        let i = t lsr ord_bits in
        starts.(i + 1) <- starts.(i + 1) + 1;
        let b = lv.Level.bad.(e) in
        match !first_viol with
        | Some (t', _, _) when t' < t -> ()
        | _ when b >= 0 ->
          first_viol := Some (t, fst (List.nth invariants b), lv.Level.sts.(e))
        | _ -> ());
    (* The sequential engine meets a deadlock at frontier index [d]
       before any discovery from [d], so a deadlock wins against a
       violation discovered from index [i] iff [d <= i].  A level cut
       short by the clock or an interrupt is partial: no event. *)
    let dead = Array.fold_left min max_int dead_idx in
    Array.fill dead_idx 0 jobs max_int;
    let ev =
      if Atomic.get timed_out || Atomic.get intr then None
      else
        match !first_viol with
        | Some (t, name, st) when dead > t lsr ord_bits ->
          Some (`V (t, name, st))
        | _ when dead < max_int -> Some (`D dead)
        | _ -> None
    in
    for i = 1 to len do
      starts.(i) <- starts.(i) + starts.(i - 1)
    done;
    let total = starts.(len) in
    let tags = Array.make total 0 and next = Array.make total sys.init in
    iter_level (fun lv e ->
        let t = lv.Level.tags.(e) in
        let p = starts.(t lsr ord_bits) in
        starts.(t lsr ord_bits) <- p + 1;
        tags.(p) <- t;
        next.(p) <- lv.Level.sts.(e));
    Array.iter (fun sh -> Level.clear sh.level sys.init) shards;
    for p = 1 to total - 1 do
      let t = tags.(p) and st = next.(p) in
      let q = ref p in
      while !q > 0 && tags.(!q - 1) > t do
        tags.(!q) <- tags.(!q - 1);
        next.(!q) <- next.(!q - 1);
        decr q
      done;
      tags.(!q) <- t;
      next.(!q) <- st
    done;
    (* The sequential engine stops right after discovering a violating
       state, or before any discovery from a deadlocked one: [m] of the
       level's states are then discovered.  It also stops at exactly
       [max_states], so an event past the cap is never reached. *)
    let before cut =
      let k = ref 0 in
      while !k < total && tags.(!k) < cut do
        incr k
      done;
      !k
    in
    let ev, m =
      match ev with
      | None -> (None, total)
      | Some ev -> (
        (* [m], and the state count that would have hit the cap first *)
        let m, capped_at =
          match ev with
          | `V (t, _, _) ->
            let m = before (t + 1) in
            (m, !n_states + m)
          | `D d ->
            let m = before (d lsl ord_bits) in
            (m, !n_states + m + 1)
        in
        match max_states with
        | Some cap when capped_at > cap -> (None, total)
        | _ -> (Some ev, m))
    in
    for r = 0 to m - 1 do
      let t = tags.(r) in
      on_fresh next.(r);
      prov_record ~id:(!n_states + r)
        ~parent:(base_cur + (t lsr ord_bits))
        ~ord:(t land ord_mask)
    done;
    let next = if m = total then next else Array.sub next 0 m in
    (* transitions up to the event: every successor of the indices before
       it, plus the violating successor's own ordinal + 1 *)
    let upto i =
      let acc = ref 0 in
      for j = 0 to i - 1 do
        acc := !acc + counts.(j)
      done;
      !acc
    in
    (n_trans :=
       !n_trans
       +
       match ev with
       | None -> upto len
       | Some (`V (t, _, _)) -> upto (t lsr ord_bits) + (t land ord_mask) + 1
       | Some (`D d) -> upto d);
    (* Level boundary: the frontier's level is fully expanded.  Depth
       and cumulative state count only — deterministic across engines
       and parallelism, unlike transition interleavings. *)
    (match on_level with
    | Some f when m > 0 -> f ~depth:!cur_depth ~states:!n_states
    | _ -> ());
    n_states := !n_states + m;
    frontier := next;
    nsucc := Array.make m 0;
    Atomic.set cursor 0;
    if m > 0 then begin
      incr cur_depth;
      if m > !peak_frontier then peak_frontier := m;
      emit_progress ()
    end;
    (match ev with
    | Some (`V (_, name, st)) ->
      event := Some (Violation { invariant = name; state = st }, !n_states - 1);
      Atomic.set stop true
    | Some (`D d) ->
      event := Some (Deadlock f.(d), base_cur + d);
      Atomic.set stop true
    | None -> ());
    (match (max_states, max_mem_bytes) with
    | _ when !event <> None -> ()
    | Some cap, _ when !n_states >= cap ->
      limit_hit := Some (Limit L_states);
      Atomic.set stop true
    | _, Some cap when total_bytes () >= cap ->
      limit_hit := Some (Limit L_memory);
      Atomic.set stop true
    | _ -> ());
    if Atomic.get intr then limit_hit := Some (Limit L_interrupt);
    if Atomic.get timed_out then limit_hit := Some (Limit L_time);
    keep_going := (not (Atomic.get stop)) && m > 0;
    (* Checkpoint at the level boundary — but not after a mid-level stop
       (time cap or interrupt caught workers part-way through a level, so
       the merged frontier is partial and not resumable; the previously
       written checkpoint stands). *)
    match ckpt with
    | Some c
      when m > 0
           && (not (Atomic.get timed_out))
           && (not (Atomic.get intr))
           && !event = None ->
      let base = !n_states - m in
      let d = !cur_depth in
      c.ck_save
        {
          v_states = !n_states;
          v_transitions = !n_trans;
          v_depth = d;
          v_final = not !keep_going;
          v_frontier =
            (fun () -> Array.mapi (fun i st -> (base + i, d, 0, st)) next);
          v_iter_keys =
            (fun f -> Array.iter (fun sh -> sh.store.Vstore.iter_keys f) shards);
        }
    | _ -> ()
  in
  let worker wid () =
    let running = ref true in
    while !running do
      let f = !frontier in
      let len = Array.length f in
      let exhausted = ref false in
      while not !exhausted do
        let start = Atomic.fetch_and_add cursor batch in
        if start >= len then exhausted := true
        else
          for i = start to min len (start + batch) - 1 do
            if not (Atomic.get stop) then guarded (fun () -> expand wid i f.(i))
          done
      done;
      barrier ();
      if wid = 0 then begin
        if !worker_exn = None then guarded merge_level;
        if !worker_exn <> None then keep_going := false
      end;
      barrier ();
      running := !keep_going
    done
  in
  (* discover the initial state (and its possible violation) up front, as
     the sequential engine does — or, on resume, rebuild the level
     boundary the checkpoint recorded *)
  (match ckpt with
  | Some { ck_resume = Some r; _ } ->
    let len = Array.length r.r_frontier in
    if len = 0 then invalid_arg "Explore.par_run: empty resume frontier";
    let _, d0, _, _ = r.r_frontier.(0) in
    Array.iteri
      (fun i (id, d, o, _) ->
        if d <> d0 || o <> 0 || id <> r.r_states - len + i then
          invalid_arg
            "Explore.par_run: mid-level checkpoint (saved by the \
             sequential engine); resume it with -j 1")
      r.r_frontier;
    r.r_keys (fun k -> ignore ((shard_of (hash k)).store.Vstore.add k));
    n_states := r.r_states;
    n_trans := r.r_transitions;
    frontier := Array.map (fun (_, _, _, st) -> st) r.r_frontier;
    nsucc := Array.make len 0;
    cur_depth := d0;
    peak_frontier := len
  | _ -> (
    let init = sys.init in
    let key = key_of init in
    ignore ((shard_of (hash key)).store.Vstore.add key);
    on_fresh init;
    prov_record ~id:0 ~parent:0 ~ord:(-1);
    n_states := 1;
    match List.find_opt (fun (_, check) -> not (check init)) invariants with
    | Some (name, _) ->
      event := Some (Violation { invariant = name; state = init }, 0);
      Atomic.set stop true
    | None -> ()));
  (match max_states with
  | Some cap when !event = None && !n_states >= cap ->
    limit_hit := Some (Limit L_states);
    Atomic.set stop true
  | _ -> ());
  if not (Atomic.get stop) then begin
    let others =
      List.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join others
  end;
  (match !worker_exn with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  let outcome, trace_path =
    match (!event, prov) with
    | Some (o, bad_id), Some p when trace -> (o, Some (replay_path p sys bad_id))
    | Some (o, _), _ -> (o, None)
    | None, _ -> ((match !limit_hit with Some o -> o | None -> Complete), None)
  in
  {
    outcome;
    states = !n_states;
    transitions = !n_trans;
    time_s = Unix.gettimeofday () -. t0;
    mem_bytes = total_bytes ();
    raw_bytes = total_raw ();
    peak_frontier = !peak_frontier;
    max_depth = !cur_depth;
    canon_fallbacks = canon_fallbacks ();
    trace = trace_path;
  }

let pp_outcome pp_state ppf = function
  | Complete -> Fmt.string ppf "complete"
  | Limit L_states -> Fmt.string ppf "unfinished (state cap)"
  | Limit L_memory -> Fmt.string ppf "unfinished (memory cap)"
  | Limit L_time -> Fmt.string ppf "unfinished (time cap)"
  | Limit L_interrupt -> Fmt.string ppf "unfinished (interrupted)"
  | Violation { invariant; state } ->
    Fmt.pf ppf "invariant %s violated at@,%a" invariant pp_state state
  | Deadlock state -> Fmt.pf ppf "deadlock at@,%a" pp_state state
