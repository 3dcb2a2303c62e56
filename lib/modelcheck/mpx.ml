(* Multi-process exploration: the canonical-key space is partitioned over
   [workers] forked OS processes, each owning the visited-set shard for
   its keys (and, with [jobs > 1], running its own OCaml 5 domain pool for
   successor generation and canonicalization).  The parent process is a
   pure coordinator: it routes frontier batches between workers over
   pipes and assigns global discovery indices, which makes state and
   transition counts byte-identical to the sequential engine's.

   Level-synchronous protocol, per BFS level:

   1. parent -> worker: the candidate states owned by that worker, each
      tagged with (parent global index, successor ordinal);
   2. worker: sorts its candidates by tag — exactly the order the
      sequential engine would discover them in — and runs them through
      its visited store, so the representative kept per key is
      deterministic and equal to [Explore.run]'s;
   3. worker -> parent: the tags found fresh (plus store/meter figures);
   4. parent: k-way merges the fresh tags of all workers, assigns each
      fresh state its global index by rank, applies the resource caps at
      level granularity, and answers with the indices (or a stop);
   5. worker: expands its fresh states (optionally over a domain pool)
      and sends every successor up; the parent routes them, closing the
      loop.

   Ownership partitions the key space, so freshness decisions are local
   to one worker and no cross-process race can affect them.  Each worker
   reports its tag-first invariant violation and deadlock; the parent
   picks the sequential-first event among them, reports the sequential
   engine's exact counts at that event, and rebuilds the counterexample
   from its provenance table — the same discipline as [Explore.par_run].

   The parent is also a supervisor.  It keeps, per worker, an
   append-only log of the keys that merged fresh into that worker's
   shard (an unlinked temp file, so worker state is reconstructible
   without any worker cooperation).  A worker that dies — detected as
   EOF/EPIPE on its pipes — is respawned with exponential backoff, its
   store rebuilt from the log, and the in-flight protocol step replayed:
   a dedup round is simply re-sent, an expansion round is re-issued as an
   explicit [P_expand] (the parent retains each worker's fresh slice for
   exactly this purpose).  When the respawn budget runs out the parent
   degrades instead of failing: every worker is stopped, the key space is
   re-partitioned over one fewer worker from the logs, and the round
   restarts — counts are unaffected because global ids are assigned by
   (parent gidx, ordinal) rank, which is worker-count-independent.  The
   same logs double as the checkpoint serialization source, so
   [ckpt] costs no extra protocol messages. *)

(* Key-to-owner routing uses its own hash seed, independent of the exact
   store probe hash (0), the in-process shard router (2) and the disk
   index (3). *)
let owner_seed = 4

type 's to_worker =
  | P_preload of string array
      (** add these keys to the store, silently: store reconstruction
          after a respawn, and checkpoint-resume seeding *)
  | P_candidates of (int * int * string * 's) array
      (** (gidx, ord, key, state), unsorted; all owned by the receiver *)
  | P_assign of { gidx : int array; stop : bool; level : int }
      (** global index for each fresh state, in the order the worker
          reported them; [stop] ends the worker after this message;
          [level] is the BFS depth about to be expanded *)
  | P_expand of { frontier : (int * 's) array; level : int }
      (** expand exactly these states (no dedup round): respawn
          recovery and checkpoint-resume *)

(* Events carry their discovery tag so the parent can pick the
   sequential-first one: a violation is tagged with the (parent gidx,
   successor ordinal) it was discovered from, a deadlock with the
   deadlocked state's own gidx. *)
type event = Ev_violation of string * int * int | Ev_deadlock of int

type fresh_report = {
  tags : (int * int) array;  (** fresh candidates, in sorted tag order *)
  mem : int;
  raw : int;
  count : int;
  fallbacks : int;
  expand_s : float;  (** cumulative seconds spent expanding *)
  f_event : event option;  (** first invariant violation, if any *)
}

type 's exp_report = {
  succs : (int * int * string * 's) list;
      (** successor candidates, unordered; the parent re-buckets *)
  trans : int;  (** transitions generated this level *)
  x_event : event option;
  x_timed_out : bool;
}

type 's to_parent = W_fresh of fresh_report | W_expanded of 's exp_report

let send oc (msg : 'a) =
  Marshal.to_channel oc msg [];
  flush oc

let recv ic : 'a = Marshal.from_channel ic

(* ---- parent-side per-worker key logs -------------------------------------- *)

(* Everything a worker's visited shard contains, in insertion order, as
   varint-framed keys in an unlinked temp file.  Serves three masters:
   respawn preload, degradation re-partitioning, and the checkpoint
   visited section. *)
module Klog = struct
  type t = { fd : Unix.file_descr; buf : Buffer.t; mutable bytes : int }

  let create () =
    let path = Filename.temp_file "ccr-mpx" ".klog" in
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    { fd; buf = Buffer.create 8192; bytes = 0 }

  let flush t =
    if Buffer.length t.buf > 0 then begin
      let s = Buffer.contents t.buf in
      ignore (Unix.lseek t.fd t.bytes Unix.SEEK_SET);
      let len = String.length s in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring t.fd s !off (len - !off)
      done;
      t.bytes <- t.bytes + len;
      Buffer.clear t.buf
    end

  let add t key =
    let n = String.length key in
    let rec varint i =
      if i < 0x80 then Buffer.add_char t.buf (Char.unsafe_chr i)
      else begin
        Buffer.add_char t.buf (Char.unsafe_chr (0x80 lor (i land 0x7f)));
        varint (i lsr 7)
      end
    in
    varint n;
    Buffer.add_string t.buf key;
    if Buffer.length t.buf >= 1 lsl 18 then flush t

  let iter t f =
    flush t;
    ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
    let b = Bytes.create t.bytes in
    let off = ref 0 in
    while !off < t.bytes do
      let n = Unix.read t.fd b !off (t.bytes - !off) in
      if n = 0 then failwith "Mpx.Klog: short read";
      off := !off + n
    done;
    let pos = ref 0 in
    while !pos < t.bytes do
      let len = ref 0 and shift = ref 0 and more = ref true in
      while !more do
        let c = Char.code (Bytes.unsafe_get b !pos) in
        incr pos;
        if c < 0x80 then begin
          len := !len lor (c lsl !shift);
          more := false
        end
        else begin
          len := !len lor ((c land 0x7f) lsl !shift);
          shift := !shift + 7
        end
      done;
      f (Bytes.sub_string b !pos !len);
      pos := !pos + !len
    done

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* Expand [frontier] (an array of (gidx, state)), generating every
   successor tagged (gidx, ordinal) with its canonical key.  With
   [jobs > 1] and enough work the frontier is drained by a domain pool
   off an atomic cursor; order is irrelevant here — the owner sorts. *)
let expand_frontier ~jobs ~key_of ~succ ~check_deadlock ~deadline frontier =
  let len = Array.length frontier in
  let n_dom = if jobs > 1 && len >= 64 then jobs else 1 in
  let cursor = Atomic.make 0 in
  let batch = 16 in
  let one_domain () =
    let acc = ref [] and trans = ref 0 in
    (* min gidx that deadlocked (max_int = none): the minimum is what the
       sequential engine would have hit first *)
    let dead = ref max_int and timed_out = ref false in
    let running = ref true in
    while !running do
      let start = Atomic.fetch_and_add cursor batch in
      if start >= len then running := false
      else begin
        (match deadline with
        | Some d when Unix.gettimeofday () > d ->
          timed_out := true;
          running := false
        | _ -> ());
        if !running then
          for i = start to min len (start + batch) - 1 do
            let gidx, st = frontier.(i) in
            let succs = succ st in
            if check_deadlock && succs = [] && gidx < !dead then dead := gidx;
            trans := !trans + List.length succs;
            List.iteri
              (fun ord (_, st') -> acc := (gidx, ord, key_of st', st') :: !acc)
              succs
          done
      end
    done;
    (!acc, !trans, !dead, !timed_out)
  in
  let results =
    if n_dom = 1 then [ one_domain () ]
    else
      let doms = List.init (n_dom - 1) (fun _ -> Domain.spawn one_domain) in
      let mine = one_domain () in
      mine :: List.map Domain.join doms
  in
  List.fold_left
    (fun (acc, trans, dead, timed_out) (a, t, d, o) ->
      (List.rev_append a acc, trans + t, min dead d, timed_out || o))
    ([], 0, max_int, false)
    results

let worker_main ~wid ~ic ~oc ~jobs ~key_of ~on_fresh ~canon_fallbacks ~succ
    ~invariants ~check_deadlock ~store_kind ~deadline =
  (* interruption is the parent's to field: it reacts at the level
     boundary and stops us with [P_assign stop] — a worker that died to
     Ctrl-C would read as a crash and burn respawn budget *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  let crash_level =
    match Ckpt.crash_at () with
    | Some { Ckpt.ca_worker = Some w; ca_level } when w = wid -> Some ca_level
    | _ -> None
  in
  let maybe_crash level =
    match crash_level with
    | Some l when l = level -> Ckpt.crash_here ()
    | _ -> ()
  in
  let store = Vstore.make store_kind in
  let expand_s = ref 0. in
  let last_fresh = ref [||] in
  let expand_and_report frontier =
    let t0 = Unix.gettimeofday () in
    let acc, trans, dead, timed_out =
      expand_frontier ~jobs ~key_of ~succ ~check_deadlock ~deadline frontier
    in
    let event = if dead < max_int then Some (Ev_deadlock dead) else None in
    expand_s := !expand_s +. (Unix.gettimeofday () -. t0);
    send oc
      (W_expanded { succs = acc; trans; x_event = event; x_timed_out = timed_out })
  in
  let running = ref true in
  while !running do
    match (recv ic : _ to_worker) with
    | P_preload keys -> Array.iter (fun k -> ignore (store.Vstore.add k)) keys
    | P_candidates cands ->
      Array.sort
        (fun (g1, o1, _, _) (g2, o2, _, _) ->
          if g1 <> g2 then compare g1 g2 else compare o1 o2)
        cands;
      let fresh = ref [] and n_fresh = ref 0 in
      let event = ref None in
      Array.iter
        (fun (g, o, key, st) ->
          if store.Vstore.add key then begin
            on_fresh st;
            fresh := (g, o, st) :: !fresh;
            incr n_fresh;
            if !event = None then
              match
                List.find_opt (fun (_, check) -> not (check st)) invariants
              with
              | Some (name, _) ->
                (* the scan is in sorted tag order, so the first fresh
                   violation is this worker's (g, o)-minimal one *)
                event := Some (Ev_violation (name, g, o))
              | None -> ()
          end)
        cands;
      last_fresh := Array.of_list (List.rev !fresh);
      send oc
        (W_fresh
           {
             tags = Array.map (fun (g, o, _) -> (g, o)) !last_fresh;
             mem = store.Vstore.mem_bytes ();
             raw = store.Vstore.raw_bytes ();
             count = store.Vstore.count ();
             fallbacks = canon_fallbacks ();
             expand_s = !expand_s;
             f_event = !event;
           })
    | P_assign { gidx; stop; level } ->
      if stop then running := false
      else begin
        maybe_crash level;
        (* tags arrive sorted and global indices are assigned by tag
           rank, so the frontier is already in gidx order *)
        expand_and_report
          (Array.mapi (fun i (_, _, st) -> (gidx.(i), st)) !last_fresh)
      end
    | P_expand { frontier; level } ->
      maybe_crash level;
      expand_and_report frontier
  done

exception Worker_died of int
exception Degrade

let run ?(workers = 2) ?(jobs = 1) ?(store = Vstore.Mem) ?max_states
    ?max_mem_bytes ?max_time_s ?(check_deadlock = false) ?(trace = false)
    ?(invariants = []) ?on_progress ?metrics ?prov ?on_level ?interrupt ?ckpt
    ?on_respawn ?on_degrade (sys : ('s, 'l) Explore.system) =
  let workers = max 1 workers in
  if workers = 1 then
    (* no partitioning to do: run in-process *)
    if jobs > 1 then
      Explore.par_run ~jobs ~store ?max_states ?max_mem_bytes ?max_time_s
        ~check_deadlock ~trace ~invariants ?on_progress ?prov ?on_level
        ?interrupt ?ckpt sys
    else
      Explore.run ~store ?max_states ?max_mem_bytes ?max_time_s
        ~check_deadlock ~trace ~invariants ?on_progress ?prov ?on_level
        ?interrupt ?ckpt sys
  else begin
    let t0 = Unix.gettimeofday () in
    let deadline = Option.map (fun cap -> t0 +. cap) max_time_s in
    let key_of, on_fresh, canon_fallbacks = Explore.key_fns sys in
    let prov = Explore.trace_prov ~engine:"Mpx.run" ~trace prov ckpt in
    let resume =
      match ckpt with
      | Some { Explore.ck_resume = Some r; _ } -> Some r
      | _ -> None
    in
    (match resume with
    | Some r ->
      let len = Array.length r.Explore.r_frontier in
      if len = 0 then invalid_arg "Mpx.run: empty resume frontier";
      let _, d0, _, _ = r.Explore.r_frontier.(0) in
      Array.iteri
        (fun i (id, d, o, _) ->
          if d <> d0 || o <> 0 || id <> r.Explore.r_states - len + i then
            invalid_arg
              "Mpx.run: mid-level checkpoint (saved by the sequential \
               engine); resume it with -j 1 --workers 1")
        r.Explore.r_frontier
    | None -> ());
    (* a worker death turns into EPIPE on our next send; we want the
       Sys_error, not the default fatal signal *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let n_workers = ref workers in
    let spawn ~wid =
      (* fork before any domain is spawned in this process: mixing fork
         with live domains is unsupported in OCaml 5 (the parent never
         spawns domains itself, so respawns stay legal mid-run) *)
      let p2w_r, p2w_w = Unix.pipe ~cloexec:false () in
      let w2p_r, w2p_w = Unix.pipe ~cloexec:false () in
      match Unix.fork () with
      | 0 ->
        Unix.close p2w_w;
        Unix.close w2p_r;
        let ic = Unix.in_channel_of_descr p2w_r in
        let oc = Unix.out_channel_of_descr w2p_w in
        let status =
          try
            worker_main ~wid ~ic ~oc ~jobs ~key_of ~on_fresh ~canon_fallbacks
              ~succ:sys.Explore.succ ~invariants ~check_deadlock
              ~store_kind:store ~deadline;
            0
          with _ -> 1
        in
        (* _exit: skip the parent's at_exit/flush inherited state *)
        Unix._exit status
      | pid ->
        Unix.close p2w_r;
        Unix.close w2p_w;
        ( pid,
          Unix.out_channel_of_descr p2w_w,
          Unix.in_channel_of_descr w2p_r )
    in
    let procs = ref (Array.init workers (fun wid -> spawn ~wid)) in
    (* initial forks inherited the crash directive; clear it so
       respawned workers do not crash again on the same level *)
    (match Ckpt.crash_at () with
    | Some { Ckpt.ca_worker = Some _; _ } -> (
      try Unix.putenv "CCR_CRASH_AT" "" with Unix.Unix_error _ -> ())
    | _ -> ());
    let logs = ref (Array.init workers (fun _ -> Klog.create ())) in
    let respawn_budget = ref (workers * 2) in
    let respawn_attempts = ref 0 in
    let send_to w msg =
      let _, oc, _ = !procs.(w) in
      try send oc msg with Sys_error _ -> raise (Worker_died w)
    in
    let recv_from w : 's to_parent =
      let _, _, ic = !procs.(w) in
      try recv ic
      with End_of_file | Sys_error _ | Failure _ -> raise (Worker_died w)
    in
    let reap w =
      let pid, oc, ic = !procs.(w) in
      (try close_out oc with _ -> ());
      (try close_in ic with _ -> ());
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    in
    let preload w =
      (* rebuild the worker's shard from its log, in batches so one
         message never holds the whole store *)
      let batch = ref [] and n = ref 0 in
      let flush_batch () =
        if !n > 0 then begin
          send_to w (P_preload (Array.of_list (List.rev !batch)));
          batch := [];
          n := 0
        end
      in
      Klog.iter !logs.(w) (fun k ->
          batch := k :: !batch;
          incr n;
          if !n >= 65536 then flush_batch ());
      flush_batch ()
    in
    let rec recover w =
      reap w;
      if !respawn_budget <= 0 then raise Degrade;
      decr respawn_budget;
      Unix.sleepf (0.05 *. (2. ** float_of_int (min !respawn_attempts 5)));
      incr respawn_attempts;
      !procs.(w) <- spawn ~wid:w;
      (match on_respawn with Some f -> f ~worker:w | None -> ());
      (* the replacement can die during its own preload; that counts
         against the same budget *)
      try preload w with Worker_died _ -> recover w
    in
    let worker_mem = ref (Array.make workers 0) in
    let worker_raw = ref (Array.make workers 0) in
    let worker_count = ref (Array.make workers 0) in
    let worker_fallbacks = ref (Array.make workers 0) in
    let worker_expand_s = ref (Array.make workers 0.) in
    let degrade () =
      (* respawn budget exhausted: re-partition the key space over one
         fewer worker (from the logs — no worker cooperation needed) and
         let the caller restart its round.  Counts are unaffected: global
         ids are assigned by tag rank, which ignores worker count. *)
      for w = 0 to !n_workers - 1 do
        reap w
      done;
      let w' = !n_workers - 1 in
      if w' < 1 then failwith "Mpx: all workers lost, respawn budget exhausted";
      let new_logs = Array.init w' (fun _ -> Klog.create ()) in
      Array.iter
        (fun l ->
          Klog.iter l (fun k ->
              Klog.add new_logs.(Hashtbl.seeded_hash owner_seed k mod w') k))
        !logs;
      Array.iter Klog.close !logs;
      logs := new_logs;
      n_workers := w';
      procs := Array.init w' (fun wid -> spawn ~wid);
      worker_mem := Array.make w' 0;
      worker_raw := Array.make w' 0;
      worker_count := Array.make w' 0;
      worker_fallbacks := Array.make w' 0;
      worker_expand_s := Array.make w' 0.;
      respawn_budget := w' * 2;
      respawn_attempts := 0;
      for w = 0 to w' - 1 do
        try preload w with Worker_died _ -> recover w
      done;
      match on_degrade with Some f -> f ~workers:w' | None -> ()
    in
    let owner w key = Hashtbl.seeded_hash owner_seed key mod w in
    (* One dedup round: bucket the level's candidates by owner, collect
       every W_fresh.  Survives worker deaths (respawn, replay the same
       bucket: dedup against the log-rebuilt store is deterministic) and
       degradation (full restart over fewer workers). *)
    let rec collect_fresh cands_all =
      try
        let w = !n_workers in
        let buckets = Array.make w [] in
        List.iter
          (fun ((_, _, key, _) as c) ->
            let o = owner w key in
            buckets.(o) <- c :: buckets.(o))
          cands_all;
        let sent = Array.map (fun l -> Array.of_list l) buckets in
        let reports = Array.make w None in
        while Array.exists Option.is_none reports do
          (* dispatch to every unreported worker first, then collect:
             workers dedup in parallel *)
          let pending = ref [] in
          for wk = w - 1 downto 0 do
            if reports.(wk) = None then
              try
                send_to wk (P_candidates sent.(wk));
                pending := wk :: !pending
              with Worker_died _ -> recover wk
          done;
          List.iter
            (fun wk ->
              try
                match recv_from wk with
                | W_fresh r -> reports.(wk) <- Some r
                | W_expanded _ -> invalid_arg "Mpx: unexpected expanded"
              with Worker_died _ -> recover wk)
            !pending
        done;
        (sent, Array.map Option.get reports)
      with Degrade ->
        degrade ();
        collect_fresh cands_all
    in
    (* One expansion round.  [slices.(wk)] is the (gidx, state) frontier
       worker [wk] owns — normally reachable via a bare [P_assign]
       (the worker kept its fresh list), but a respawned worker lost it
       and gets the explicit [P_expand].  Reports are staged and merged
       by the caller only once all arrive, so a late death never
       double-counts. *)
    let rec collect_expanded ~level ~assignments ~slices ~via_assign =
      try
        let w = !n_workers in
        let reports = Array.make w None in
        while Array.exists Option.is_none reports do
          let pending = ref [] in
          for wk = w - 1 downto 0 do
            if reports.(wk) = None then
              try
                (if via_assign.(wk) then
                   send_to wk
                     (P_assign { gidx = assignments.(wk); stop = false; level })
                 else send_to wk (P_expand { frontier = slices.(wk); level }));
                pending := wk :: !pending
              with Worker_died _ ->
                recover wk;
                via_assign.(wk) <- false
          done;
          List.iter
            (fun wk ->
              try
                match recv_from wk with
                | W_expanded r -> reports.(wk) <- Some r
                | W_fresh _ -> invalid_arg "Mpx: unexpected fresh"
              with Worker_died _ ->
                recover wk;
                via_assign.(wk) <- false)
            !pending
        done;
        Array.map Option.get reports
      with Degrade ->
        degrade ();
        let w = !n_workers in
        let slices' = Array.make w [] in
        Array.iter
          (Array.iter (fun ((_, st) as e) ->
               let o = owner w (key_of st) in
               slices'.(o) <- e :: slices'.(o)))
          slices;
        collect_expanded ~level
          ~assignments:(Array.make w [||])
          ~slices:(Array.map (fun l -> Array.of_list (List.rev l)) slices')
          ~via_assign:(Array.make w false)
    in
    let stop_workers () =
      for wk = 0 to !n_workers - 1 do
        try send_to wk (P_assign { gidx = [||]; stop = true; level = 0 })
        with Worker_died _ -> reap wk
      done
    in
    let shutdown () =
      Array.iter
        (fun (pid, oc, ic) ->
          (try close_out oc with _ -> ());
          (try close_in ic with _ -> ());
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
        !procs;
      Array.iter Klog.close !logs;
      match old_sigpipe with
      | Some h -> ( try ignore (Sys.signal Sys.sigpipe h) with _ -> ())
      | None -> ()
    in
    Fun.protect ~finally:shutdown @@ fun () ->
    let n_states = ref 0 in
    let transitions = ref 0 in
    let peak_frontier = ref 0 in
    let depth = ref 0 in
    let max_depth = ref 0 in
    let limit = ref None in
    let worker_partial = ref false in
    let prov_record ~id ~parent ~ord =
      match prov with
      | Some p -> Vstore.Prov.record p ~id ~parent ~ord
      | None -> ()
    in
    (* The parent selects the sequential-first event itself: violations
       of the level being merged arrive in this iteration's W_fresh,
       deadlocks of the previous level arrive in the previous iteration's
       W_expanded — both index the same id range, so they are compared
       here before stopping.  [event] holds the outcome and the bad
       state's id. *)
    let event = ref None in
    let pending_dead = ref max_int in
    (* the frontier slices of the last expansion round (a deadlocked
       state is looked up there by gidx), and the transition count before
       that round *)
    let expanded = ref [||] in
    let trans_base = ref 0 in
    let gauges =
      match metrics with
      | None -> None
      | Some reg ->
        Some
          (Array.init workers (fun w ->
               ( Ccr_obs.Metrics.gauge reg
                   (Printf.sprintf "mpx.w%d.states_per_s" w),
                 Ccr_obs.Metrics.gauge reg
                   (Printf.sprintf "mpx.w%d.bytes_per_state" w) )))
    in
    let update_gauges () =
      match gauges with
      | None -> ()
      | Some gs ->
        Array.iteri
          (fun w (g_rate, g_bytes) ->
            if w < !n_workers then begin
              if !worker_expand_s.(w) > 0. then
                Ccr_obs.Metrics.set g_rate
                  (float_of_int !worker_count.(w) /. !worker_expand_s.(w));
              if !worker_count.(w) > 0 then
                Ccr_obs.Metrics.set g_bytes
                  (float_of_int !worker_mem.(w)
                  /. float_of_int !worker_count.(w))
            end)
          gs
    in
    let emit_progress ~frontier =
      match on_progress with
      | None -> ()
      | Some f ->
        let elapsed = Unix.gettimeofday () -. t0 in
        let maxc = Array.fold_left max 0 !worker_count in
        f
          {
            Ccr_obs.Progress.states = !n_states;
            transitions = !transitions;
            depth = !depth;
            frontier;
            rate =
              (if elapsed > 0. then float_of_int !n_states /. elapsed else 0.);
            mem_bytes = Array.fold_left ( + ) 0 !worker_mem;
            shard_balance =
              (if !n_states = 0 then 1.0
               else
                 float_of_int (maxc * !n_workers) /. float_of_int !n_states);
            elapsed_s = elapsed;
          }
    in
    (* candidates for the next dedup round (the successors of the level
       just expanded), across all owners *)
    let cands_all = ref [] in
    (* collect one expansion round into parent state *)
    let route_expanded slices reports =
      expanded := slices;
      trans_base := !transitions;
      Array.iter
        (fun xr ->
          transitions := !transitions + xr.trans;
          (match xr.x_event with
          | Some (Ev_deadlock g) -> if g < !pending_dead then pending_dead := g
          | Some (Ev_violation _) | None -> ());
          if xr.x_timed_out then worker_partial := true;
          cands_all := List.rev_append xr.succs !cands_all)
        reports
    in
    (match resume with
    | None ->
      (* level 0: the initial state, routed to its owner like any other
         candidate, so its freshness/invariant handling is uniform *)
      cands_all := [ (0, 0, key_of sys.Explore.init, sys.Explore.init) ]
    | Some r ->
      (* seed counters, logs and worker shards from the checkpoint, then
         expand the checkpointed frontier directly — its states are
         already in the stores, so a dedup round would find nothing *)
      let len = Array.length r.Explore.r_frontier in
      let _, d0, _, _ = r.Explore.r_frontier.(0) in
      n_states := r.Explore.r_states;
      transitions := r.Explore.r_transitions;
      depth := d0;
      max_depth := d0;
      peak_frontier := len;
      (match max_states with
      | Some cap when !n_states >= cap -> limit := Some Explore.L_states
      | _ -> ());
      if !limit = None then begin
        let w = !n_workers in
        let batches = Array.make w [] in
        r.Explore.r_keys (fun k ->
            let o = owner w k in
            Klog.add !logs.(o) k;
            batches.(o) <- k :: batches.(o));
        Array.iteri
          (fun wk b ->
            try send_to wk (P_preload (Array.of_list (List.rev b)))
            with Worker_died _ -> recover wk (* recover preloads the log *))
          batches;
        let slices = Array.make w [] in
        Array.iter
          (fun (id, _, _, st) ->
            let o = owner w (key_of st) in
            slices.(o) <- (id, st) :: slices.(o))
          r.Explore.r_frontier;
        let slices = Array.map (fun l -> Array.of_list (List.rev l)) slices in
        route_expanded slices
          (collect_expanded ~level:d0
             ~assignments:(Array.make w [||])
             ~slices ~via_assign:(Array.make w false))
      end);
    let looping = ref (!limit = None) in
    let assignments = ref [||] in
    let fresh_cands = ref [||] in
    while !looping do
      (* phase 1+2: hand each worker its candidates, collect fresh tags *)
      let level_cands = !cands_all in
      cands_all := [];
      let sent, freshes = collect_fresh level_cands in
      let w = !n_workers in
      let best_viol = ref None in
      Array.iteri
        (fun wk fr ->
          !worker_mem.(wk) <- fr.mem;
          !worker_raw.(wk) <- fr.raw;
          !worker_count.(wk) <- fr.count;
          !worker_fallbacks.(wk) <- fr.fallbacks;
          !worker_expand_s.(wk) <- fr.expand_s;
          match fr.f_event with
          | Some (Ev_violation (name, g, o)) -> (
            (* each worker reports its (g, o)-minimal violation; keep
               the global minimum *)
            match !best_viol with
            | Some (g', o', _) when (g', o') <= (g, o) -> ()
            | _ -> best_viol := Some (g, o, name))
          | Some (Ev_deadlock _) | None -> ())
        freshes;
      (* phase 3: merge the tag streams (each already sorted) and assign
         global indices by overall rank — the sequential discovery order *)
      let worker_tags = Array.map (fun fr -> fr.tags) freshes in
      let total_fresh =
        Array.fold_left (fun a t -> a + Array.length t) 0 worker_tags
      in
      let merged = Array.make total_fresh (0, 0, 0) in
      let k = ref 0 in
      Array.iteri
        (fun wk tags ->
          Array.iteri
            (fun i (g, o) ->
              merged.(!k) <- (g, o, (wk lsl 32) lor i);
              incr k)
            tags)
        worker_tags;
      Array.sort
        (fun (g1, o1, _) (g2, o2, _) ->
          if g1 <> g2 then compare g1 g2 else compare o1 o2)
        merged;
      (* deterministic event selection: compare this level's first
         violation with the previous level's first deadlock — the
         sequential engine hits a deadlock at gidx [d] before any
         discovery from [d], so the deadlock wins iff [d <= g] *)
      let d = !pending_dead in
      pending_dead := max_int;
      let ev =
        if !worker_partial then None
        else
          match !best_viol with
          | Some (g, o, name) when d > g -> Some (`V (g, o, name))
          | _ when d < max_int -> Some (`D d)
          | _ -> None
      in
      (* The sequential engine stops right after discovering a violating
         state, or before any discovery from a deadlocked one: [m] of the
         level's states are then discovered.  It also stops at exactly
         [max_states], so an event past the cap is never reached. *)
      let before ev (g', o') =
        match ev with
        | `V (g, o, _) -> (g', o') <= (g, o)
        | `D d -> g' < d
      in
      let ev, m =
        match ev with
        | None -> (None, total_fresh)
        | Some ev -> (
          let m =
            Array.fold_left
              (fun acc (g, o, _) -> if before ev (g, o) then acc + 1 else acc)
              0 merged
          in
          (* the state count that would have hit the cap first *)
          let capped_at =
            match ev with `V _ -> !n_states + m | `D _ -> !n_states + m + 1
          in
          match max_states with
          | Some cap when capped_at > cap -> (None, total_fresh)
          | _ -> (Some ev, m))
      in
      assignments :=
        Array.map (fun tags -> Array.make (Array.length tags) 0) worker_tags;
      Array.iteri
        (fun rank (g, o, src) ->
          let id = !n_states + rank in
          !assignments.(src lsr 32).(src land 0xffffffff) <- id;
          (* rank order is the sequential discovery order, so provenance
             ids recorded here are dense and engine-independent *)
          if rank < m then
            prov_record ~id ~parent:g ~ord:(if id = 0 then -1 else o))
        merged;
      (* recover each worker's fresh (key, state)s by matching its sorted
         candidates against the returned tags — tags are unique and both
         sides (g, o)-sorted, so one pointer walk per worker suffices.
         This is what makes workers expendable: the parent can re-issue
         any slice of the level, and serialize the frontier, alone. *)
      fresh_cands :=
        Array.mapi
          (fun wk tags ->
            let cands = Array.copy sent.(wk) in
            Array.sort
              (fun (g1, o1, _, _) (g2, o2, _, _) ->
                if g1 <> g2 then compare g1 g2 else compare o1 o2)
              cands;
            let out =
              Array.make (Array.length tags) (0, 0, "", sys.Explore.init)
            in
            let j = ref 0 in
            Array.iteri
              (fun i (g, o) ->
                while
                  (let g', o', _, _ = cands.(!j) in
                   (g', o') <> (g, o))
                do
                  incr j
                done;
                out.(i) <- cands.(!j))
              tags;
            out)
          worker_tags;
      (* the logs must mirror the stores before any checkpoint or
         respawn can rely on them *)
      Array.iteri
        (fun wk fc ->
          Array.iter (fun (_, _, key, _) -> Klog.add !logs.(wk) key) fc)
        !fresh_cands;
      (match ev with
      | None -> ()
      | Some ev ->
        let level_trans =
          (* the initial state is discovered, not reached by a transition *)
          if !n_states = 0 then 0
          else
            List.fold_left
              (fun acc (g, o, _, _) -> if before ev (g, o) then acc + 1 else acc)
              0 level_cands
        in
        transitions := !trans_base + level_trans;
        let find_in slices p =
          Option.get (Array.find_map (Array.find_opt p) slices)
        in
        event :=
          Some
            (match ev with
            | `V (g, o, name) ->
              let _, _, _, st =
                find_in !fresh_cands (fun (g', o', _, _) -> g' = g && o' = o)
              in
              ( Explore.Violation { invariant = name; state = st },
                !n_states + m - 1 )
            | `D d ->
              let _, st = find_in !expanded (fun (g, _) -> g = d) in
              (Explore.Deadlock st, d)));
      (* level boundary: previous level fully merged (depth and cumulative
         count only — deterministic across engines and parallelism) *)
      (match on_level with
      | Some f when m > 0 && !n_states > 0 -> f ~depth:!depth ~states:!n_states
      | _ -> ());
      n_states := !n_states + m;
      if m > !peak_frontier then peak_frontier := m;
      if m > 0 && !n_states > 1 then begin
        incr depth;
        max_depth := !depth
      end;
      emit_progress ~frontier:m;
      update_gauges ();
      (match interrupt with
      | Some f when f () -> limit := Some Explore.L_interrupt
      | _ -> ());
      (* caps, at level granularity as in [Explore.par_run] *)
      (match (max_states, max_mem_bytes) with
      | _ when !event <> None -> ()
      | Some cap, _ when !n_states >= cap -> limit := Some Explore.L_states
      | _, Some cap when Array.fold_left ( + ) 0 !worker_mem >= cap ->
        limit := Some Explore.L_memory
      | _ -> ());
      (match deadline with
      | Some d when Unix.gettimeofday () > d -> limit := Some Explore.L_time
      | _ -> ());
      if !worker_partial then limit := Some Explore.L_time;
      let stop = m = 0 || !limit <> None || !event <> None in
      (* checkpoint the boundary — unless the merged level is partial
         (a worker hit the deadline mid-expansion: the previous
         checkpoint stands) or the run ends in a definitive verdict *)
      (match ckpt with
      | Some c
        when m > 0 && (not !worker_partial) && !event = None ->
        let base = !n_states - total_fresh in
        let fc = !fresh_cands and asg = !assignments in
        c.Explore.ck_save
          {
            Explore.v_states = !n_states;
            v_transitions = !transitions;
            v_depth = !depth;
            v_final = stop;
            v_frontier =
              (fun () ->
                let arr =
                  Array.make total_fresh (0, 0, 0, sys.Explore.init)
                in
                Array.iteri
                  (fun wk slice ->
                    Array.iteri
                      (fun i (_, _, _, st) ->
                        let id = asg.(wk).(i) in
                        arr.(id - base) <- (id, !depth, 0, st))
                      slice)
                  fc;
                arr);
            v_iter_keys =
              (fun f -> Array.iter (fun l -> Klog.iter l f) !logs);
          }
      | _ -> ());
      if stop then begin
        stop_workers ();
        looping := false
      end
      else begin
        (* phase 4+5: expand the level, stage and route the successors *)
        let slices =
          Array.init w (fun wk ->
              Array.mapi
                (fun i (_, _, _, st) -> (!assignments.(wk).(i), st))
                !fresh_cands.(wk))
        in
        route_expanded slices
          (collect_expanded ~level:!depth ~assignments:!assignments ~slices
             ~via_assign:(Array.make w true))
      end
    done;
    let outcome, trace_path =
      match (!event, prov) with
      | Some (o, bad_id), Some p when trace ->
        (* the parent holds the provenance table and [sys]: replay the
           chain to the selected event's id — no re-exploration *)
        (o, Some (Explore.replay_path p sys bad_id))
      | Some (o, _), _ -> (o, None)
      | None, _ ->
        ( (match !limit with
          | Some l -> Explore.Limit l
          | None -> Explore.Complete),
          None )
    in
    {
      Explore.outcome;
      states = !n_states;
      transitions = !transitions;
      time_s = Unix.gettimeofday () -. t0;
      mem_bytes = Array.fold_left ( + ) 0 !worker_mem;
      raw_bytes = Array.fold_left ( + ) 0 !worker_raw;
      peak_frontier = !peak_frontier;
      max_depth = !max_depth;
      canon_fallbacks = Array.fold_left ( + ) 0 !worker_fallbacks;
      trace = trace_path;
    }
  end
