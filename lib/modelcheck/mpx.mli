(** Multi-process exploration.

    [run] partitions the canonical-key space over [workers] forked OS
    processes — each owning the visited-store shard for its keys, each
    free to run its own OCaml 5 domain pool — and coordinates them from
    the parent over pipes with a level-synchronous frontier-exchange
    protocol (see the implementation header for the wire steps).  Because
    ownership partitions keys and the parent assigns global discovery
    indices by sequential-BFS rank, [states] and [transitions] are
    byte-identical to {!Explore.run} and {!Explore.par_run} at every
    worker and job count.

    Use it when one process's heap is the bottleneck: each worker holds
    [1/workers] of the visited set, and with [--store collapse] or
    [--store disk] per worker the per-process resident set shrinks
    further.  For pure CPU parallelism inside one address space,
    {!Explore.par_run} has lower constant costs.

    The parent also supervises.  It retains, per worker, an append-only
    log of the keys merged into that worker's shard, so a worker that
    dies (crash, OOM kill, [CCR_CRASH_AT] injection) is respawned with
    exponential backoff, its store rebuilt from the log, and the
    interrupted protocol step replayed — counts are unaffected.  When
    the respawn budget ([2 * workers], reset on degradation) is
    exhausted, the key space is re-partitioned over one fewer worker and
    the round restarts; only the loss of the last worker fails the run.
    The same logs serve as the checkpoint serialization source, so
    attaching [ckpt] adds no protocol messages.

    Requirements: states and labels must contain no closures (frontier
    batches cross process boundaries via [Marshal]), and [run] must be
    called before any domain is spawned in the calling process (it
    forks).  All systems in this repository satisfy both. *)

val run :
  ?workers:int ->
  ?jobs:int ->
  ?store:Vstore.kind ->
  ?max_states:int ->
  ?max_mem_bytes:int ->
  ?max_time_s:float ->
  ?check_deadlock:bool ->
  ?trace:bool ->
  ?invariants:(string * ('s -> bool)) list ->
  ?on_progress:(Ccr_obs.Progress.sample -> unit) ->
  ?metrics:Ccr_obs.Metrics.t ->
  ?prov:Vstore.Prov.t ->
  ?on_level:(depth:int -> states:int -> unit) ->
  ?interrupt:(unit -> bool) ->
  ?ckpt:'s Explore.ckpt ->
  ?on_respawn:(worker:int -> unit) ->
  ?on_degrade:(workers:int -> unit) ->
  ('s, 'l) Explore.system ->
  ('s, 'l) Explore.stats
(** Explore with [workers] processes (default 2; [1] delegates to the
    in-process engines, forwarding every option including [interrupt]
    and [ckpt]) of [jobs] domains each (default 1).  Resource caps are
    applied at BFS-level granularity, as in {!Explore.par_run};
    [mem_bytes]/[raw_bytes] sum the per-worker stores.  The parent
    records provenance at global-index assignment (ids dense in
    sequential discovery order) into [prov], or with [~trace:true] into
    an internal resident table.  On a violation or deadlock it selects
    the sequential-first event among the workers' reports, reports
    {!Explore.run}'s exact [states], [transitions] and [max_depth] at
    that event, and rebuilds the counterexample with
    {!Explore.replay_path} — as {!Explore.par_run} does.  [metrics]
    (default: none) publishes per-worker [mpx.w<i>.states_per_s] and
    [mpx.w<i>.bytes_per_state] gauges through the obs layer.
    [on_progress] fires in the parent at every level boundary; its
    [shard_balance] reports how evenly states spread over the workers.
    [on_level] fires in the parent once per completed level, emitting
    exactly the sequential engine's (depth, cumulative states)
    sequence.

    [interrupt] is polled in the parent at each level boundary;
    [ckpt.ck_save] fires there too (the boundary is complete: all of the
    level's states are merged and identified), except after a mid-level
    deadline stop, where the frontier would be partial and the previous
    checkpoint stands.  [ckpt.ck_resume] must be a level-boundary
    payload (uniform depth, zero ordinals, contiguous trailing ids) —
    the sequential engine's mid-level checkpoints are refused with
    [Invalid_argument].  [on_respawn]/[on_degrade] observe supervision:
    a worker replaced after a crash, and the worker count dropping after
    a respawn-budget exhaustion. *)
