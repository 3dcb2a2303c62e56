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

type strategy = Bfs | Dfs

type visited_mode = Exact | Bitstate of int

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

let bitstate_positions = Vstore.bitstate_positions

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

(* The visited set: exact in-memory, collapse-compressed or out-of-core
   per the [store] kind, or bitstate when the [visited] mode asks for it
   (bitstate changes the semantics — approximate counts — so it stays a
   mode, not a store, and takes precedence). *)
let make_store ?init_slots ?tail_cap visited kind =
  match visited with
  | Exact -> Vstore.make ?init_slots ?tail_cap kind
  | Bitstate b -> Vstore.bitstate b

let run ?(strategy = Bfs) ?(visited = Exact) ?(store = Vstore.Mem) ?max_states
    ?max_mem_bytes ?max_time_s ?(check_deadlock = false) ?(trace = false)
    ?(invariants = []) ?on_progress ?(progress_every = 8192) ?prov ?on_level
    ?interrupt ?ckpt sys =
  let t0 = Unix.gettimeofday () in
  let key_of, on_fresh, canon_fallbacks = key_fns sys in
  let store = make_store visited store in
  (* Checkpoint control is BFS-only: level boundaries are not meaningful
     under DFS. *)
  let ck = match ckpt with Some c when strategy = Bfs -> Some c | _ -> None in
  (* Traces come from a provenance table: the caller's, or an internal
     resident one (8 bytes per state) — visited states are never kept.
     A resumed run's ids continue from the checkpoint, so only a table
     restored alongside it can take them. *)
  let prov =
    match (prov, ck) with
    | Some _, _ -> prov
    | None, _ when not trace -> None
    | None, Some { ck_resume = Some _; _ } ->
      invalid_arg
        "Explore.run: ~trace:true on a resumed checkpoint needs the \
         checkpoint's provenance table; pass it as ~prov"
    | None, _ -> Some (Vstore.Prov.create ())
  in
  let prov_record ~id ~parent ~ord =
    match prov with
    | Some p -> Vstore.Prov.record p ~id ~parent ~ord
    | None -> ()
  in
  (* Level boundaries are only meaningful under BFS, where discovery
     depth is monotone. *)
  let emit_level =
    match (on_level, strategy) with
    | Some f, Bfs -> fun ~depth ~states -> f ~depth ~states
    | _ -> fun ~depth:_ ~states:_ -> ()
  in
  let n_states = ref 0 in
  let push_frontier, pop_frontier, frontier_empty, frontier_entries =
    match strategy with
    | Bfs ->
      let q = Queue.create () in
      ( (fun x -> Queue.push x q),
        (fun () -> Queue.pop q),
        (fun () -> Queue.is_empty q),
        fun () -> List.of_seq (Queue.to_seq q) )
    | Dfs ->
      let s = Stack.create () in
      ( (fun x -> Stack.push x s),
        (fun () -> Stack.pop s),
        (fun () -> Stack.is_empty s),
        fun () -> List.of_seq (Stack.to_seq s) )
  in
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
      push_frontier (st, id, depth);
      incr frontier_len;
      if !frontier_len > !peak_frontier then peak_frontier := !frontier_len;
      emit_progress depth
    end
  in
  let ck_save ~final ~head () =
    match ck with
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
                List.map
                  (fun (st, id, d) -> (id, d, 0, st))
                  (frontier_entries ())
              in
              Array.of_list
                (match head with
                | Some (st, id, d, o) -> (id, d, o, st) :: rest
                | None -> rest));
          v_iter_keys = store.Vstore.iter_keys;
        }
  in
  (* With an [ord] skip marker a resumed in-flight state re-expands only
     the successors the interrupted run never traversed, so transition
     counts continue exactly where the checkpoint left them. *)
  let pending_skip = ref None in
  (match ck with
  | Some { ck_resume = Some r; _ } ->
    r.r_keys (fun k -> ignore (store.Vstore.add k));
    n_states := r.r_states;
    n_transitions := r.r_transitions;
    Array.iter
      (fun (id, d, o, st) ->
        if d > !max_depth then max_depth := d;
        if o > 0 then pending_skip := Some (id, o);
        push_frontier (st, id, d);
        incr frontier_len)
      r.r_frontier;
    peak_frontier := !frontier_len
  | _ -> discover sys.init 0 ~ord:(-1) ~depth:0);
  let last_depth = ref 0 in
  let inflight = ref None in
  while (not (frontier_empty ())) && !finished = None do
    let st, id, depth = pop_frontier () in
    decr frontier_len;
    let start_ord =
      match !pending_skip with
      | Some (sid, o) when sid = id ->
        pending_skip := None;
        o
      | _ -> 0
    in
    if ck <> None then begin
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
            if ck <> None && !finished <> None then
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

(* Shard routing uses a third hash seed so it stays independent of both the
   exact store's probe hash (seed 0) and the bitstate positions (0 and 1). *)
let shard_seed = 2
let n_shards = 64 (* power of two; log2 = 6 *)

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

let par_run ?jobs ?(visited = Exact) ?(store = Vstore.Mem) ?max_states
    ?max_mem_bytes ?max_time_s ?(check_deadlock = false) ?(trace = false)
    ?(invariants = []) ?on_progress ?prov ?on_level ?interrupt ?ckpt sys =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let t0 = Unix.gettimeofday () in
  let key_of, on_fresh, canon_fallbacks = key_fns sys in
  let store_kind = store in
  let prov_mode = prov <> None in
  let prov_record ~id ~parent ~ord =
    match prov with
    | Some p -> Vstore.Prov.record p ~id ~parent ~ord
    | None -> ()
  in
  (* Sharded visited set: [n_shards] independent stores, each behind its own
     mutex; states route to a shard by a seeded hash of the encoded key, so
     two domains only contend when they discover states that share a shard.
     Shards start with small index tables and tail buffers: mem_bytes is
     honest about table overhead, so 64 eagerly-sized shards would eat a
     small memory cap up front.  In [Bitstate b] mode each shard holds a
     table of [2^(b - log2 n_shards)] bits, keeping total memory at the
     sequential [2^b] bits (collision patterns differ from the sequential
     table's, so bitstate counts are, as always, approximate). *)
  let shard_stores =
    match (visited, store_kind) with
    | Exact, Vstore.Collapse split ->
      (* shared intern layer: per-shard tables would multiply the
         component-table memory by the shard count *)
      Vstore.collapse_shared ~init_slots:256 ~split n_shards
    | Exact, (Vstore.Mem | Vstore.Disk) ->
      Array.init n_shards (fun _ ->
          Vstore.make ~init_slots:256 ~tail_cap:8192 store_kind)
    | Bitstate b, _ -> Array.init n_shards (fun _ -> Vstore.bitstate (b - 6))
  in
  let shards = Array.map (fun s -> (Mutex.create (), s)) shard_stores in
  let shard_add key =
    let lock, store =
      shards.(Hashtbl.seeded_hash shard_seed key land (n_shards - 1))
    in
    Mutex.lock lock;
    let fresh = store.Vstore.add key in
    Mutex.unlock lock;
    fresh
  in
  let total_bytes () =
    Array.fold_left (fun acc (_, s) -> acc + s.Vstore.mem_bytes ()) 0 shards
  in
  let total_raw () =
    Array.fold_left (fun acc (_, s) -> acc + s.Vstore.raw_bytes ()) 0 shards
  in
  (* Cooperative stop flag, polled by every domain between expansions. *)
  let stop = Atomic.make false in
  let timed_out = Atomic.make false in
  let intr = Atomic.make false in
  (* First violation/deadlock/exception seen by any domain, in arrival
     order (the deterministic report comes from the sequential fallback). *)
  let event_lock = Mutex.create () in
  let event = ref None in
  (* With provenance the event is instead selected deterministically by
     the leader at a level boundary (the sequential-first event), with its
     bad-state id — no fallback re-run needed. *)
  let prov_event = ref None in
  let worker_exn = ref None in
  let record_event e =
    Mutex.lock event_lock;
    if !event = None then event := Some e;
    Mutex.unlock event_lock;
    Atomic.set stop true
  in
  let record_exn exn bt =
    Mutex.lock event_lock;
    if !worker_exn = None then worker_exn := Some (exn, bt);
    Mutex.unlock event_lock;
    Atomic.set stop true
  in
  (* Level-synchronous BFS.  All domains drain the current frontier in
     batches claimed off an atomic cursor; newly discovered states
     accumulate in per-domain buffers; at the level boundary the leader
     (worker 0) splices the buffers into the next frontier and applies the
     resource caps.  Expanding strictly level by level preserves BFS
     semantics, and per-domain buffers keep the shared structures cold
     inside a level. *)
  let frontier = ref [| sys.init |] in
  let cursor = Atomic.make 0 in
  let batch = 32 in
  let next = Array.init jobs (fun _ -> ref []) in
  let trans = Array.init jobs (fun _ -> ref 0) in
  let n_states = ref 0 in
  let limit_hit = ref None in
  let keep_going = ref true in
  let cur_depth = ref 0 in
  let peak_frontier = ref 1 in
  let barrier = make_barrier jobs in
  (* Only the leader (worker 0) emits progress, at level boundaries; the
     reads of other domains' transition counters and shard fills are
     unsynchronized (monitoring data, exactness not required). *)
  let emit_progress () =
    match on_progress with
    | None -> ()
    | Some f ->
      let total = !n_states in
      let maxc =
        Array.fold_left (fun m (_, s) -> max m (s.Vstore.count ())) 0 shards
      in
      let balance =
        if total = 0 then 1.0
        else float_of_int (maxc * n_shards) /. float_of_int total
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      f
        {
          Ccr_obs.Progress.states = total;
          transitions = Array.fold_left (fun acc r -> acc + !r) 0 trans;
          depth = !cur_depth;
          frontier = Array.length !frontier;
          rate = (if elapsed > 0. then float_of_int total /. elapsed else 0.);
          mem_bytes = total_bytes ();
          shard_balance = balance;
          elapsed_s = elapsed;
        }
  in
  let discover wid st' =
    let key = key_of st' in
    if shard_add key then begin
      on_fresh st';
      next.(wid) := st' :: !(next.(wid));
      match List.find_opt (fun (_, check) -> not (check st')) invariants with
      | Some (name, _) -> record_event (Violation { invariant = name; state = st' })
      | None -> ()
    end
  in
  (* Under symmetry reduction which orbit member reaches the visited set
     first decides the concrete representative whose successors get
     explored — and for protocols that are symmetric only up to dead
     rid-variable resets, different representatives reach different key
     sets.  The racy [discover] above would then make counts depend on the
     within-level race.  So with a [canon] hook the workers merely buffer
     every successor, tagged with its (frontier index, successor ordinal),
     and the leader replays the buffers in that order at the level
     boundary: freshness is decided exactly as the sequential engine would,
     so par_run keeps its counts-equal-seq determinism. *)
  let has_canon = sys.canon <> None in
  (* Provenance needs the same discovery order as the sequential engine
     (dense ids in seq-BFS order), so it forces the buffered leader-replay
     path even without a canon hook. *)
  let ordered = has_canon || prov_mode in
  let pend = Array.init jobs (fun _ -> ref []) in
  (* In prov mode deadlocks must not stop the level (the level has to
     complete for deterministic ids); each worker keeps the minimum
     frontier index it saw deadlock at, and the leader compares that with
     the first replayed violation at the boundary. *)
  let dead_idx = Array.init jobs (fun _ -> ref max_int) in
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
      if check_deadlock && succs = [] then
        if prov_mode then begin
          if i < !(dead_idx.(wid)) then dead_idx.(wid) := i
        end
        else record_event (Deadlock st);
      trans.(wid) := !(trans.(wid)) + List.length succs;
      if ordered then
        (* canonicalization (the expensive step) stays in the workers *)
        List.iteri
          (fun ord (_, st') ->
            pend.(wid) := (i, ord, key_of st', st') :: !(pend.(wid)))
          succs
      else List.iter (fun (_, st') -> discover wid st') succs
    end
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
            if not (Atomic.get stop) then
              (* exceptions must not break out of the barrier protocol:
                 record, stop everyone, re-raise after the join *)
              try expand wid i f.(i)
              with exn -> record_exn exn (Printexc.get_raw_backtrace ())
          done
      done;
      barrier ();
      if wid = 0 then begin
        (* merge the per-domain discoveries into the next frontier *)
        let base_cur = !n_states - Array.length !frontier in
        let first_viol = ref None in
        let level =
          if ordered then begin
            (* replay the buffered discoveries in (frontier index,
               successor ordinal) order — the order the sequential engine
               discovers them in — so the representative kept per
               canonical key is race-free and identical to [run]'s *)
            let entries =
              Array.of_list
                (List.concat_map
                   (fun r ->
                     let l = !r in
                     r := [];
                     l)
                   (Array.to_list pend))
            in
            Array.sort
              (fun (i1, o1, _, _) (i2, o2, _, _) ->
                if i1 <> i2 then compare i1 i2 else compare o1 o2)
              entries;
            let acc = ref [] in
            let fresh_n = ref 0 in
            Array.iter
              (fun (i, ord, key, st') ->
                if shard_add key then begin
                  on_fresh st';
                  prov_record
                    ~id:(!n_states + !fresh_n)
                    ~parent:(base_cur + i) ~ord;
                  incr fresh_n;
                  acc := st' :: !acc;
                  match
                    List.find_opt (fun (_, check) -> not (check st')) invariants
                  with
                  | Some (name, _) ->
                    if prov_mode then begin
                      if !first_viol = None then
                        first_viol :=
                          Some (i, ord, !n_states + !fresh_n - 1, name, st')
                    end
                    else record_event (Violation { invariant = name; state = st' })
                  | None -> ()
                end)
              entries;
            List.rev !acc
          end
          else
            List.concat_map
              (fun r ->
                let l = !r in
                r := [];
                l)
              (Array.to_list next)
        in
        (* Deterministic event selection: the sequential engine would hit
           a deadlock at frontier index d before any discovery from d, so
           a deadlock wins against a violation replayed at (i, ord) iff
           d <= i.  Only the earliest level with an event reports. *)
        (if prov_mode && !prov_event = None && not (Atomic.get timed_out)
         then begin
           let dmin =
             Array.fold_left
               (fun m r ->
                 let v = !r in
                 r := max_int;
                 min m v)
               max_int dead_idx
           in
           match (!first_viol, dmin) with
           | None, d when d = max_int -> ()
           | Some (i, _ord, id, name, st'), d when d = max_int || d > i ->
             prov_event :=
               Some (Violation { invariant = name; state = st' }, id);
             Atomic.set stop true
           | _, d ->
             prov_event := Some (Deadlock (!frontier).(d), base_cur + d);
             Atomic.set stop true
         end);
        (* Level boundary: the frontier's level is fully expanded.  Depth
           and cumulative state count only — deterministic across engines
           and parallelism, unlike transition interleavings. *)
        (match on_level with
        | Some f when level <> [] -> f ~depth:!cur_depth ~states:!n_states
        | _ -> ());
        n_states := !n_states + List.length level;
        frontier := Array.of_list level;
        Atomic.set cursor 0;
        if Array.length !frontier > 0 then begin
          incr cur_depth;
          if Array.length !frontier > !peak_frontier then
            peak_frontier := Array.length !frontier;
          emit_progress ()
        end;
        (match (max_states, max_mem_bytes) with
        | Some cap, _ when !n_states >= cap ->
          limit_hit := Some (Limit L_states);
          Atomic.set stop true
        | _, Some cap when total_bytes () >= cap ->
          limit_hit := Some (Limit L_memory);
          Atomic.set stop true
        | _ -> ());
        if Atomic.get intr then limit_hit := Some (Limit L_interrupt);
        if Atomic.get timed_out then limit_hit := Some (Limit L_time);
        keep_going := (not (Atomic.get stop)) && Array.length !frontier > 0;
        (* Checkpoint at the level boundary — but not after a mid-level
           stop (time cap or interrupt caught workers part-way through a
           level, so the merged frontier is partial and not resumable;
           the previously written checkpoint stands). *)
        (match ckpt with
        | Some c
          when Array.length !frontier > 0
               && (not (Atomic.get timed_out))
               && (not (Atomic.get intr))
               && !event = None && !prov_event = None ->
          let len = Array.length !frontier in
          let base = !n_states - len in
          let d = !cur_depth in
          c.ck_save
            {
              v_states = !n_states;
              v_transitions = Array.fold_left (fun a r -> a + !r) 0 trans;
              v_depth = d;
              v_final = not !keep_going;
              v_frontier =
                (fun () -> Array.mapi (fun i st -> (base + i, d, 0, st)) !frontier);
              v_iter_keys =
                (fun f -> Array.iter (fun (_, s) -> s.Vstore.iter_keys f) shards);
            }
        | _ -> ())
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
    r.r_keys (fun k -> ignore (shard_add k));
    n_states := r.r_states;
    trans.(0) := r.r_transitions;
    frontier := Array.map (fun (_, _, _, st) -> st) r.r_frontier;
    cur_depth := d0;
    peak_frontier := len
  | _ ->
    ignore (shard_add (key_of sys.init));
    on_fresh sys.init;
    prov_record ~id:0 ~parent:0 ~ord:(-1);
    n_states := 1;
    (match
       List.find_opt (fun (_, check) -> not (check sys.init)) invariants
     with
    | Some (name, _) ->
      if prov_mode then begin
        prov_event :=
          Some (Violation { invariant = name; state = sys.init }, 0);
        Atomic.set stop true
      end
      else record_event (Violation { invariant = name; state = sys.init })
    | None -> ()));
  (match max_states with
  | Some cap when !n_states >= cap ->
    limit_hit := Some (Limit L_states);
    Atomic.set stop true
  | _ -> ());
  let others = List.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join others;
  (match !worker_exn with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  match (!prov_event, !event) with
  | Some (outcome, bad_id), _ ->
    (* The leader already selected the sequential-first event and its
       state id; the counterexample is an O(depth) provenance chain walk
       — no re-exploration. *)
    let trace_path =
      match (trace, prov) with
      | true, Some p -> Some (replay_path p sys bad_id)
      | _ -> None
    in
    {
      outcome;
      states = !n_states;
      transitions = Array.fold_left (fun acc r -> acc + !r) 0 trans;
      time_s = Unix.gettimeofday () -. t0;
      mem_bytes = total_bytes ();
      raw_bytes = total_raw ();
      peak_frontier = !peak_frontier;
      max_depth = !cur_depth;
      canon_fallbacks = canon_fallbacks ();
      trace = trace_path;
    }
  | None, Some _ ->
    (* A violation or deadlock was found without provenance.  Which one
       the stats report, and the counterexample trace, must be
       deterministic: fall back to a sequential BFS re-run, which returns
       the canonical (shallowest, first-discovered) event with its
       shortest-path trace. *)
    let r =
      run ~strategy:Bfs ~visited ~store:store_kind ?max_states ?max_mem_bytes
        ?max_time_s ~check_deadlock ~trace ~invariants ?on_progress ?interrupt
        sys
    in
    { r with time_s = Unix.gettimeofday () -. t0 }
  | None, None ->
    {
      outcome = (match !limit_hit with Some o -> o | None -> Complete);
      states = !n_states;
      transitions = Array.fold_left (fun acc r -> acc + !r) 0 trans;
      time_s = Unix.gettimeofday () -. t0;
      mem_bytes = total_bytes ();
      raw_bytes = total_raw ();
      peak_frontier = !peak_frontier;
      max_depth = !cur_depth;
      canon_fallbacks = canon_fallbacks ();
      trace = None;
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
