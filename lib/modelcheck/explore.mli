(** Explicit-state reachability analysis.

    This is the reproduction's substitute for the paper's use of SPIN
    (§5): breadth-first enumeration of the reachable states of a labeled
    transition system, with invariant checking, deadlock detection,
    counterexample traces, and the resource caps that produce the
    "Unfinished" entries of Table 3. *)

type 's canon = {
  canon_key : 's -> string;
      (** canonical (orbit-representative) encoding used to key the
          visited set; must be deterministic and injective {e across
          orbits} (two states may share a key only if they are related by
          a symmetry of the system) *)
  canon_fresh : ('s -> unit) option;
      (** if given, called on each state right after it is found fresh.
          The sequential engine calls it in the domain that canonicalized
          the state, so per-state canonicalization by-products (e.g. orbit
          sizes held in domain-local storage) are still readable; the
          parallel engine decides freshness in the leader domain at level
          boundaries, so such by-products are {e not} readable there —
          attach domain-local harvesting only for sequential runs *)
  canon_fallbacks : unit -> int;
      (** read at the end of the search: how many canonicalizations gave
          up on exactness and returned a merely injective key (sound, but
          reduces less) — surfaced as {!stats.canon_fallbacks} *)
}
(** Symmetry-reduction hook.  When present, exploration stores
    [canon_key st] in the visited set but keeps the {e concrete} state for
    successor generation, invariant checking and traces — so quotient
    exploration changes which states count as duplicates, while
    counterexamples remain concrete, replayable runs (de-canonicalization
    is free: canonical keys never replace states). *)

type ('s, 'l) system = {
  init : 's;
  succ : 's -> ('l * 's) list;
  encode : 's -> string;  (** injective encoding for visited-state hashing *)
  canon : 's canon option;
      (** optional symmetry reduction; [None] = explore the full space *)
}

val key_fns :
  ('s, 'l) system -> ('s -> string) * ('s -> unit) * (unit -> int)
(** The visited-set key function, fresh-state callback and fallback
    counter of a system ([encode] and no-ops without a [canon] hook).
    Shared with the multi-process engine ({!Mpx}). *)

type limit =
  | L_states
  | L_memory
  | L_time
  | L_interrupt
      (** the [interrupt] callback asked the engine to stop (e.g. a
          SIGINT/SIGTERM handler); work done so far is reported — and,
          with a checkpoint control attached, persisted *)

type strategy = Bfs | Dfs
(** Search order.  Both enumerate the same reachable set; BFS yields
    shortest counterexamples, DFS uses less frontier memory. *)

type visited_mode =
  | Exact  (** hash table of full encodings: exact counts *)
  | Bitstate of int
      (** supertrace/bitstate hashing with a [2^bits]-bit table and two
          independent hash functions, as SPIN's [-DBITSTATE] (Holzmann
          1991, which the paper used).  Collisions silently prune states:
          the visit count is a lower bound, using [2^bits / 8] bytes
          regardless of the state space. *)

type 's outcome =
  | Complete  (** the full reachable state space was enumerated *)
  | Limit of limit  (** exploration stopped at a resource cap *)
  | Violation of { invariant : string; state : 's }
  | Deadlock of 's  (** a state with no successors (when enabled) *)

type ('s, 'l) stats = {
  outcome : 's outcome;
  states : int;  (** distinct states visited *)
  transitions : int;  (** transitions traversed *)
  time_s : float;
  mem_bytes : int;
      (** honest resident bytes of the visited-state set, including index
          tables, headers and tail buffers — what [max_mem_bytes] meters *)
  raw_bytes : int;
      (** what the plain in-memory store would hold for the same states
          (key bytes plus a fixed per-state overhead); with a compressed
          or out-of-core store, [raw_bytes /. mem_bytes] is the
          compression ratio *)
  peak_frontier : int;
      (** most states simultaneously awaiting expansion (BFS: queue
          watermark / largest level; DFS: stack watermark) *)
  max_depth : int;
      (** deepest discovery (BFS: eccentricity of the initial state over
          the explored region; DFS: longest stack path reached) *)
  canon_fallbacks : int;
      (** canonicalizations that fell back to a non-canonical key (0
          without a [canon] hook); a non-zero value means the symmetry
          quotient was computed only partially — counts stay sound upper
          bounds of the quotient, verdicts are unaffected *)
  trace : ('l option * 's) list option;
      (** with [~trace:true]: initial state to offending state, each entry
          carrying the label that led to it *)
}

(** {2 Checkpoint control}

    The engines expose resumable points through this record; the file
    format, write policy and refusal logic live in {!Ckpt}.  A frontier
    entry is [(id, depth, resume_ord, state)]: the state's visited id,
    its BFS depth, and the successor ordinal expansion should resume
    from — 0 everywhere except the sequential engine's in-flight state
    at a mid-level cap, whose already-traversed successors must not be
    re-counted. *)

type 's ckpt_view = {
  v_states : int;
  v_transitions : int;
  v_depth : int;  (** BFS depth of the (deepest) frontier state *)
  v_final : bool;
      (** the engine is stopping at a cap or interrupt: last chance to
          persist *)
  v_frontier : unit -> (int * int * int * 's) array;
      (** materialize the unexpanded frontier (thunked: costs nothing
          when the policy declines the boundary) *)
  v_iter_keys : (string -> unit) -> unit;
      (** visit every visited-set key {e at this boundary} *)
}

type 's ckpt_resume = {
  r_states : int;
  r_transitions : int;
  r_frontier : (int * int * int * 's) array;
  r_keys : (string -> unit) -> unit;
}

type 's ckpt = {
  ck_resume : 's ckpt_resume option;
      (** continue from this payload instead of [sys.init].  The visited
          store is re-populated from [r_keys], counts continue from
          [r_states]/[r_transitions], and the frontier is re-queued.  A
          provenance table passed alongside must already hold
          [r_states] records (see {!Ckpt.load}).  {!par_run} and
          {!Mpx.run} require a level-boundary payload (uniform depth,
          zero resume ordinals, contiguous trailing ids) and raise
          [Invalid_argument] on a sequential mid-level checkpoint. *)
  ck_save : 's ckpt_view -> unit;
      (** called at every BFS level boundary, and once more with
          [v_final = true] when stopping at a cap/interrupt (except
          after a mid-level stop in the parallel engines, where the
          frontier is partial and the previous checkpoint stands) *)
}

val run :
  ?strategy:strategy ->
  ?visited:visited_mode ->
  ?store:Vstore.kind ->
  ?max_states:int ->
  ?max_mem_bytes:int ->
  ?max_time_s:float ->
  ?check_deadlock:bool ->
  ?trace:bool ->
  ?invariants:(string * ('s -> bool)) list ->
  ?on_progress:(Ccr_obs.Progress.sample -> unit) ->
  ?progress_every:int ->
  ?prov:Vstore.Prov.t ->
  ?on_level:(depth:int -> states:int -> unit) ->
  ?interrupt:(unit -> bool) ->
  ?ckpt:'s ckpt ->
  ('s, 'l) system ->
  ('s, 'l) stats
(** Search from [init] (default: breadth-first with an exact in-memory
    visited set).  [interrupt] (polled before every expansion) asks the
    engine to stop with [Limit L_interrupt]; [ckpt] (BFS only) attaches
    the checkpoint control described above.  [store] (default {!Vstore.Mem}) selects the
    visited-set representation — collapse-compressed or out-of-core, see
    {!Vstore}; all kinds produce identical state and transition counts,
    only memory use differs.  A [Bitstate] visited mode takes precedence
    over [store].  Invariants are checked on every state as it is discovered
    (including the initial one); the first violation stops the search.
    [check_deadlock] (default [false]) reports a state with no
    successors.  [trace] (default [false]) records each state's
    provenance — into [prov] if given, else into an internal resident
    {!Vstore.Prov} table of 8 bytes per state — and rebuilds the
    offending state's path with {!replay_path}; visited states are not
    retained.  Resuming a checkpoint with [~trace:true] requires the
    checkpoint's restored [prov] (raises [Invalid_argument] otherwise).  [on_progress] (default:
    none, zero overhead beyond one closure call per discovery) is invoked
    every [progress_every] (default 8192) discoveries with a live
    {!Ccr_obs.Progress.sample}.  [on_level] (BFS only) fires once per
    completed BFS level with its depth and the cumulative state count —
    the same sequence, in the same order, as {!par_run} and {!Mpx.run}
    emit, so journals built from it are parallelism-independent. *)

val par_run :
  ?jobs:int ->
  ?visited:visited_mode ->
  ?store:Vstore.kind ->
  ?max_states:int ->
  ?max_mem_bytes:int ->
  ?max_time_s:float ->
  ?check_deadlock:bool ->
  ?trace:bool ->
  ?invariants:(string * ('s -> bool)) list ->
  ?on_progress:(Ccr_obs.Progress.sample -> unit) ->
  ?prov:Vstore.Prov.t ->
  ?on_level:(depth:int -> states:int -> unit) ->
  ?interrupt:(unit -> bool) ->
  ?ckpt:'s ckpt ->
  ('s, 'l) system ->
  ('s, 'l) stats
(** Parallel breadth-first search over [jobs] OCaml 5 domains (default:
    [Domain.recommended_domain_count ()]).  The visited set is sharded
    across independently locked stores, routed by a seeded hash of the
    encoded key; the frontier is drained level by level in batches, with
    per-domain successor buffers merged at level boundaries, so BFS level
    order is preserved.  Requires [succ] and [encode] to be safe to call
    concurrently from several domains (true of all systems in this
    repository: they only read the compiled program).

    Determinism: for runs that end in [Complete], [states] and
    [transitions] equal the sequential {!run}'s exactly (with the [Exact]
    visited set; [Bitstate] counts are approximate in both engines, with
    different collision patterns).  With a [canon] hook this extends to
    the {e representative} kept per canonical key: workers buffer every
    successor tagged with its discovery position and the leader replays
    the buffers in sequential BFS order at the level boundary, so the
    quotient explored is identical at every job count even for protocols
    that are symmetric only up to dead-variable resets.  When a violation or deadlock is found,
    the engine falls back to a sequential re-run to report the canonical
    first event and — with [~trace:true] — its shortest counterexample,
    so the returned outcome is deterministic too; [time_s] then covers
    both phases.

    [prov] changes that last part: recording provenance forces the
    ordered leader-replay path (ids dense in sequential BFS order, at any
    job count), the leader selects the sequential-first event
    deterministically at the level boundary, and the counterexample is an
    O(depth) {!replay_path} chain walk — the fallback re-exploration is
    gone.  The event's level still completes before the engine stops, so
    on Violation/Deadlock outcomes [states]/[max_depth] may exceed the
    sequential engine's (the {e trace} is identical).  [on_level] fires
    in the leader at each completed level, emitting exactly the
    sequential engine's sequence.  Resource caps are applied at BFS-level granularity:
    a [Limit] outcome may report slightly more than [max_states].
    [on_progress] is invoked by the leader domain at every BFS level
    boundary; its sample's [shard_balance] reports how evenly the visited
    set spreads over the 64 shards.  [peak_frontier] here is the largest
    BFS level (the level-synchronous frontier watermark), and [max_depth]
    equals the sequential engine's on complete runs. *)

val replay_path :
  Vstore.Prov.t -> ('s, 'l) system -> int -> ('l option * 's) list
(** [replay_path prov sys id] rebuilds the path from [sys.init] to the
    state with visited id [id] out of the provenance side-table: an
    O(depth) parent-chain walk followed by one successor expansion per
    step (the recorded ordinal pins the concrete transition).  The result
    has the same shape and contents as {!stats.trace}.  Valid for any
    [prov] filled by {!run}/{!par_run}/{!Mpx.run} over the same system. *)

val bitstate_positions : bits:int -> string -> int * int
(** The two bit-table positions a key occupies under {!Bitstate}
    hashing (seeded hashes 0 and 1 of the key, masked to [2^bits]).
    Exposed so tests can pin the independence of the two positions.
    (Alias of {!Vstore.bitstate_positions}.) *)

val pp_outcome : 's Fmt.t -> 's outcome Fmt.t
