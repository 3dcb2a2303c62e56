(* The repo benchmark harness: one timed run per process.

   Usage: ccrbench.exe --workload W --seed N [--traced [--out FILE]]

   Instantiates the protocol [setup_reps] times (the median is [setup_s]),
   then makes one call into the workload's entry point — [Api.check_entry]
   as a flag-less [ccr check] makes it, [Absmap.check_eq1] as [ccr eq1]
   does, or [Engine.run] — times it from call to returned verdict, checks
   the answer against [Expected], and prints one JSON line.  Each run is a
   fresh process because each [ccr] invocation is one: heap growth and
   domain start-up are part of what a user waits for, and the peak RSS is
   the run's own.  With [--traced] the functions the entry point hands to
   its explorer are wrapped by probes (see [Probe]) and the line also
   carries the per-layer metrics; FILE then receives the run's spans as a
   Chrome trace_event document.  perfbench/run.py drives this program. *)

module Api = Ccr_serve.Api
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Absmap = Ccr_refine.Absmap
module Sym = Ccr_refine.Symmetry
module Wire = Ccr_refine.Wire
module Registry = Ccr_protocols.Registry
module M = Ccr_obs.Metrics
module Engine = Ccr_runtime.Engine
module Runtime = Ccr_runtime.Runtime

let protocol = "invalidate"
let n = 4
let k = 2
let max_states = 1_000_000 (* the CLI's default, for check and eq1 alike *)
let loop_budget = 50_000
let loop_deadline_s = 60.
let setup_reps = 101

type workload =
  | Check of { symmetry : [ `Auto | `Off ]; jobs : int }
  | Eq1
  | Loop

let workloads =
  [
    ("check-sym", Check { symmetry = `Auto; jobs = 1 });
    ("check-sym-j2", Check { symmetry = `Auto; jobs = 2 });
    ("check-nosym", Check { symmetry = `Off; jobs = 1 });
    ("eq1", Eq1);
    ("loop", Loop);
  ]

(* ---- small helpers ------------------------------------------------------- *)

let now_ns = Probe.now_ns
let fi = float_of_int
let secs ns = fi ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let m = Array.length a in
  if m = 0 then 0.
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

(* Resident high-water mark of this process, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> fi kb /. 1024.)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* ---- set-up -------------------------------------------------------------- *)

(* Protocol instantiation, as [ccr] does it before any check: registry
   lookup plus [instantiate].  Returns the entry with its [instantiate]
   pinned to the program just built, so the timed call starts from a
   ready protocol and set-up cost is reported on its own. *)
let setup () =
  let t0 = now_ns () in
  let e = Option.get (Registry.find protocol) in
  let prog = e.Registry.instantiate ~reqrep:true ~n in
  let t1 = now_ns () in
  let pinned = { e with Registry.instantiate = (fun ~reqrep:_ ~n:_ -> prog) } in
  (pinned, prog, (t0, t1))

(* ---- one run ------------------------------------------------------------- *)

type run = {
  ok : bool;  (** the answer matched [Expected] *)
  verdict_s : float;
  answer : (string * string) list;  (** compared with the CLI's output *)
  repeat : string;  (** traced runs: counts that must repeat exactly *)
  layer : (string * (float * string)) list;
      (** traced runs: per-layer metrics with their units *)
  entry : int * int;  (** the entry-point call, monotonic ns *)
  explore : (int * int) option;  (** traced checks: [explorer.explore] *)
}

let untraced ~ok ~answer ~entry:((t0, t1) as entry) =
  {
    ok;
    verdict_s = secs (t1 - t0);
    answer;
    repeat = "";
    layer = [];
    entry;
    explore = None;
  }

let gc_before () =
  Gc.full_major ();
  Gc.quick_stat ()

(* GC figures over the entry call; [per] is the count the minor words are
   divided by, named [per_name]. *)
let gc_metrics ~per ~per_name (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  let words = g1.Gc.minor_words -. g0.Gc.minor_words in
  let heap_bytes = g1.Gc.top_heap_words * (Sys.word_size / 8) in
  ( [
      ("gc.minor_words_per_" ^ per_name, (ratio words per, "words"));
      ( "gc.major_collections",
        (fi (g1.Gc.major_collections - g0.Gc.major_collections), "count") );
      ("gc.top_heap_mb", (fi heap_bytes /. 1048576., "MB"));
    ],
    words )

(* The per-enumerated-transition message meter that [ccr check] hands to
   [Api.check_entry] (bin/ccr.ml, [Obs.meter]), rebuilt here so a check
   pays for the same observability as the CLI's. *)
let cli_meter reg =
  let req = M.counter reg "msg.req"
  and ack = M.counter reg "msg.ack"
  and nack = M.counter reg "msg.nack"
  and data = M.counter reg "msg.data" in
  let occ = M.histogram reg "home_buffer_occupancy" in
  Async.
    {
      m_sent =
        (fun w ->
          match w with
          | Wire.Req m ->
            M.incr req;
            if m.Wire.m_payload <> [] then M.incr data
          | Wire.Ack -> M.incr ack
          | Wire.Nack ->
            M.incr nack;
            if Ccr_obs.Trace.enabled () then Ccr_obs.Trace.instant "nack");
      m_buf = (fun o -> M.observe occ o);
    }

(* [ccr check]'s engine for a flag-less invocation: the mem store, traces
   on, no caps beyond the state cap, no checkpoint, provenance or
   progress. *)
let plain_explorer ~jobs =
  {
    Api.explore =
      (fun ~check_deadlock ~split:_ ~invariants sys ->
        if jobs > 1 then
          Explore.par_run ~jobs ~store:Vstore.Mem ~max_states ~check_deadlock
            ~trace:true ~invariants sys
        else
          Explore.run ~store:Vstore.Mem ~max_states ~check_deadlock
            ~trace:true ~invariants sys);
  }

(* The same engine with every function it is handed wrapped by a probe,
   and the explore call itself timed into [span]. *)
let traced_explorer ~jobs span =
  let inner = plain_explorer ~jobs in
  let wrap_canon c =
    {
      c with
      Explore.canon_key = Probe.timed Probe.canon_i c.Explore.canon_key;
    }
  in
  {
    Api.explore =
      (fun ~check_deadlock ~split ~invariants sys ->
        let sys =
          {
            sys with
            Explore.succ =
              Probe.timed ~units:List.length Probe.succ_i sys.Explore.succ;
            encode =
              Probe.timed ~units:String.length Probe.encode_i
                sys.Explore.encode;
            canon = Option.map wrap_canon sys.Explore.canon;
          }
        in
        let invariants =
          List.map (fun (nm, f) -> (nm, Probe.timed Probe.inv_i f)) invariants
        in
        let t0 = now_ns () in
        let r = inner.Api.explore ~check_deadlock ~split ~invariants sys in
        span := Some (t0, now_ns ());
        r);
  }

(* Per-layer figures of a traced check, from the probes' totals. *)
let check_layers ~jobs ~verdict_s ~entry:(t0, t1) ~explore:(e0, e1)
    ~sym_stats (v : Api.verdict) (meta : Api.meta) =
  let states = fi v.Api.v_states and trans = fi v.Api.v_transitions in
  let calls = Probe.total (fun a -> a.Probe.calls)
  and ns = Probe.total (fun a -> a.Probe.ns)
  and words = Probe.total (fun a -> a.Probe.words)
  and units = Probe.total (fun a -> a.Probe.units) in
  let explore_s = secs (e1 - e0) in
  let leaf_s = secs (Array.fold_left ( + ) 0 ns) in
  (* the wrapped calls of all domains, spread over the job count *)
  let self_s = explore_s -. (leaf_s /. fi jobs) in
  let pre_s = secs (e0 - t0) and post_s = secs (t1 - e1) in
  let busy_main, busy_other = Probe.busy_ns () in
  let share s = (ratio s verdict_s, "share") in
  let layer ?per_unit i name =
    let c = fi calls.(i) and s = secs ns.(i) in
    [
      (name ^ ".s", (s, "s"));
      (name ^ ".share", share s);
      (name ^ ".calls", (c, "count"));
      (name ^ ".us_per_call", (ratio (s *. 1e6) c, "us"));
      (name ^ ".alloc_words_per_call", (ratio (fi words.(i)) c, "words"));
    ]
    @
    match per_unit with
    | Some (m, u) -> [ (name ^ "." ^ m, (ratio (fi units.(i)) c, u)) ]
    | None -> []
  in
  let per_canon x = ratio (fi x) (fi (Sym.calls sym_stats)) in
  [
    ("api.pre_explore_s", (pre_s, "s"));
    ("api.post_explore_s", (post_s, "s"));
    ("explore.s", (explore_s, "s"));
    ("explore.self_s", (self_s, "s"));
    ("explore.share", share self_s);
    ("explore.states", (states, "count"));
    ("explore.transitions", (trans, "count"));
    ("explore.fresh_ratio", (ratio states trans, "ratio"));
    ("explore.peak_frontier", (fi meta.Api.m_peak_frontier, "count"));
  ]
  @ layer ~per_unit:("children_per_call", "count") Probe.succ_i "succ"
  @ layer ~per_unit:("bytes_per_key", "bytes") Probe.encode_i "encode"
  @ layer Probe.canon_i "canon"
  @ [
      ("canon.perms_per_call", (per_canon (Sym.perms_tried sym_stats), "count"));
      ("canon.tied_share", (per_canon (Sym.tied_calls sym_stats), "share"));
      ("canon.fallbacks", (fi (Sym.fallbacks sym_stats), "count"));
    ]
  @ layer Probe.inv_i "inv"
  @ [
      ( "store.bytes_per_state",
        (ratio (fi meta.Api.m_mem_bytes) states, "bytes") );
      ( "store.raw_bytes_per_state",
        (ratio (fi meta.Api.m_raw_bytes) states, "bytes") );
      ("par.busy_share.d0", (ratio (secs busy_main) explore_s, "share"));
      ("par.busy_share.d1", (ratio (secs busy_other) explore_s, "share"));
      ( "par.unaccounted_s",
        ((fi jobs *. explore_s) -. secs (busy_main + busy_other), "s") );
      ( "trace.accounted_share",
        share (pre_s +. post_s +. self_s +. (leaf_s /. fi jobs)) );
    ]

let check_run ~symmetry ~jobs ~traced ~entry =
  let expected =
    match symmetry with
    | `Auto -> Expected.check_sym
    | `Off -> Expected.check_nosym
  in
  let cfg =
    {
      Api.default with
      spec = Api.Named protocol;
      level = `Async;
      n;
      k;
      symmetry = (symmetry :> [ `Auto | `Off | `Brute ]);
      jobs;
    }
  in
  let reg = M.create () in
  let meter = cli_meter reg in
  let sym_stats = Sym.make_stats () in
  let on_orbit =
    if symmetry = `Auto && jobs <= 1 then begin
      let h = M.histogram reg "canon.orbit_states" in
      Some (fun o -> M.observe h o)
    end
    else None
  in
  let span = ref None in
  let explorer =
    if traced then traced_explorer ~jobs span else plain_explorer ~jobs
  in
  if traced then Probe.reset ();
  let g0 = gc_before () in
  let t0 = now_ns () in
  let res =
    Api.check_entry ~explorer ~meter ~sym_stats ?on_orbit entry cfg
  in
  let t1 = now_ns () in
  match res with
  | Error msg ->
    prerr_endline ("check failed: " ^ msg);
    untraced ~ok:false ~answer:[] ~entry:(t0, t1)
  | Ok (v, meta) -> (
    let ok =
      v.Api.v_outcome = "complete"
      && v.Api.v_states = expected.Expected.states
      && v.Api.v_transitions = expected.Expected.transitions
      && v.Api.v_outcome_line = expected.Expected.outcome_line
      && v.Api.v_canon_fallbacks = expected.Expected.canon_fallbacks
    in
    let answer =
      [
        ("states", string_of_int v.Api.v_states);
        ("transitions", string_of_int v.Api.v_transitions);
        ("outcome", v.Api.v_outcome_line);
      ]
    in
    let r = untraced ~ok ~answer ~entry:(t0, t1) in
    match !span with
    | None -> r
    | Some e ->
      let gc, _ = gc_metrics ~per:(fi v.Api.v_states) ~per_name:"state" g0 in
      let counts field = Array.to_list (Probe.total field) in
      let repeat =
        counts (fun a -> a.Probe.calls)
        @ counts (fun a -> a.Probe.units)
        (* how allocation splits over the domains varies under -j 2 *)
        @ (if jobs = 1 then counts (fun a -> a.Probe.words) else [])
        @ [ v.Api.v_states; v.Api.v_transitions; Sym.perms_tried sym_stats ]
      in
      {
        r with
        repeat = String.concat "," (List.map string_of_int repeat);
        layer =
          check_layers ~jobs ~verdict_s:r.verdict_s ~entry:r.entry ~explore:e
            ~sym_stats v meta
          @ gc;
        explore = Some e;
      })

let eq1_run ~traced ~prog =
  let g0 = gc_before () in
  let t0 = now_ns () in
  let v = Absmap.check_eq1 ~max_states prog Async.{ k } in
  let t1 = now_ns () in
  let x = Expected.eq1 in
  let ok =
    v.Absmap.ok && (not v.Absmap.truncated)
    && v.Absmap.states = x.Expected.e_states
    && v.Absmap.transitions = x.Expected.e_transitions
    && v.Absmap.stutters = x.Expected.stutters
    && v.Absmap.steps = x.Expected.steps
    && v.Absmap.abs_states = x.Expected.abs_states
  in
  let answer =
    List.map
      (fun (nm, c) -> (nm, string_of_int c))
      [
        ("ok", Bool.to_int v.Absmap.ok);
        ("states", v.Absmap.states);
        ("transitions", v.Absmap.transitions);
        ("stutters", v.Absmap.stutters);
        ("steps", v.Absmap.steps);
        ("abs_states", v.Absmap.abs_states);
      ]
  in
  let r = untraced ~ok ~answer ~entry:(t0, t1) in
  if not traced then r
  else begin
    let trans = fi v.Absmap.transitions in
    let gc, words =
      gc_metrics ~per:(fi v.Absmap.states) ~per_name:"state" g0
    in
    {
      r with
      repeat =
        String.concat ","
          (List.map snd answer @ [ Printf.sprintf "%.0f" words ]);
      layer =
        [
          ("eq1.us_per_transition", (ratio (r.verdict_s *. 1e6) trans, "us"));
          ("eq1.stutter_share", (ratio (fi v.Absmap.stutters) trans, "share"));
          ("eq1.abs_states", (fi v.Absmap.abs_states, "count"));
          ("eq1.alloc_words_per_transition", (ratio words trans, "words"));
          ("explore.states", (fi v.Absmap.states, "count"));
          ("explore.transitions", (trans, "count"));
        ]
        @ gc;
    }
  end

(* Median of a histogram, as the lower bound of the bucket holding it. *)
let hist_p50 reg name =
  match List.assoc_opt name (M.snapshot reg).M.hists with
  | None -> 0.
  | Some h when h.M.count = 0 -> 0.
  | Some h ->
    let half = (h.M.count + 1) / 2 in
    let rec go b acc =
      let acc = acc + h.M.buckets.(b) in
      if acc >= half || b = Array.length h.M.buckets - 1 then
        fi (max 0 (fst (M.bucket_range b)))
      else go (b + 1) acc
    in
    go 0 0

let loop_run ~seed ~traced ~entry ~prog =
  let reg = M.create () in
  let invariants = entry.Registry.async_invariants prog in
  let g0 = gc_before () in
  let t0 = now_ns () in
  let s =
    Engine.run ~seed ~deadline_s:loop_deadline_s ~domains:1
      ?metrics:(if traced then Some reg else None)
      ~budget:loop_budget ~invariants prog Async.{ k }
  in
  let t1 = now_ns () in
  let lo, hi = Expected.loop_rendezvous_per_remote ~budget:loop_budget in
  let ok =
    s.Runtime.stop_cause = "quiescent"
    && s.Runtime.invariant_failures = []
    && s.Runtime.protocol_errors = []
    && Array.length s.Runtime.completions = n
    && Array.for_all (fun c -> c >= lo && c <= hi) s.Runtime.completions
  in
  let r = untraced ~ok ~answer:[] ~entry:(t0, t1) in
  if not traced then r
  else begin
    let rdv = fi s.Runtime.rendezvous in
    let per_rdv x = (ratio (fi x) rdv, "count") in
    let gc, _ = gc_metrics ~per:rdv ~per_name:"rendezvous" g0 in
    {
      r with
      repeat =
        String.concat ","
          (List.map string_of_int
             Runtime.[ s.rendezvous; s.messages; s.nacks; s.steps ]);
      layer =
        [
          ("engine.rendezvous_per_s", (ratio rdv r.verdict_s, "1/s"));
          ( "engine.ns_per_step",
            (ratio (r.verdict_s *. 1e9) (fi s.Runtime.steps), "ns") );
          ("engine.msgs_per_rendezvous", per_rdv s.Runtime.messages);
          ("engine.nacks_per_rendezvous", per_rdv s.Runtime.nacks);
          ("engine.steps_per_rendezvous", per_rdv s.Runtime.steps);
          ( "engine.batch_size_p50",
            (hist_p50 reg "engine.batch_size", "count") );
          ( "engine.mailbox_occupancy_p50",
            (hist_p50 reg "engine.mailbox_occupancy", "count") );
        ]
        @ gc;
    }
  end

(* ---- output -------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every digit of the double, so a reader recovers the measured value *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

(* Chrome trace_event document of one traced run: the instantiate span,
   the entry span, the explore span within it (traced checks), and the
   probes' kept leaf spans, which hang off the explore span.  Spans share
   the run id; [args.parent] is the parent span's id, -1 for a root. *)
let write_trace ~path ~run_id ~entry_name ~setup ~(r : run) ~leaves ~dropped =
  let base = fst setup in
  let us t = fi (t - base) /. 1e3 in
  let ev ~name ~tid ~id ~parent (t0, t1) =
    json_obj
      [
        ("name", json_string name);
        ("ph", json_string "X");
        ("pid", "1");
        ("tid", string_of_int tid);
        ("ts", Printf.sprintf "%.3f" (us t0));
        ("dur", Printf.sprintf "%.3f" (us t1 -. us t0));
        ( "args",
          json_obj
            [
              ("run", json_string run_id);
              ("span", string_of_int id);
              ("parent", string_of_int parent);
            ] );
      ]
  in
  let top =
    [
      ev ~name:"instantiate" ~tid:0 ~id:0 ~parent:(-1) setup;
      ev ~name:entry_name ~tid:0 ~id:1 ~parent:(-1) r.entry;
    ]
    @
    match r.explore with
    | Some e -> [ ev ~name:"explore" ~tid:0 ~id:2 ~parent:1 e ]
    | None -> []
  in
  let leaves =
    List.mapi
      (fun i (d, l, t0, t1) ->
        ev ~name:Probe.layers.(l) ~tid:d ~id:(3 + i) ~parent:2 (t0, t1))
      leaves
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  output_string oc (String.concat ",\n" (top @ leaves));
  Printf.fprintf oc "\n], \"dropped\": %d}\n" dropped;
  close_out oc

(* ---- driver -------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and traced = ref false
  and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (reaches Engine.run)");
      ("--traced", Arg.Set traced, " wrap the layers with probes");
      ("--out", Arg.Set_string out, "FILE write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ccrbench.exe --workload W --seed N [--traced [--out FILE]]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let setups = List.init setup_reps (fun _ -> setup ()) in
  let setup_s =
    median (List.map (fun (_, _, (t0, t1)) -> secs (t1 - t0)) setups)
  in
  (* the last set-up is the one the timed call uses *)
  let entry, prog, inst = List.nth setups (setup_reps - 1) in
  let traced = !traced in
  let r, entry_name =
    match w with
    | Check { symmetry; jobs } ->
      (check_run ~symmetry ~jobs ~traced ~entry, "check_entry")
    | Eq1 -> (eq1_run ~traced ~prog, "check_eq1")
    | Loop -> (loop_run ~seed:!seed ~traced ~entry ~prog, "engine_run")
  in
  let rss = peak_rss_mb () in
  let layer =
    if not traced then []
    else begin
      let leaves, dropped = Probe.spans () in
      if !out <> "" then
        write_trace ~path:!out
          ~run_id:
            (Printf.sprintf "%s-seed%d-pid%d" !workload !seed (Unix.getpid ()))
          ~entry_name ~setup:inst ~r ~leaves ~dropped;
      r.layer
      @ [
          ("setup.instantiate_s", (secs (snd inst - fst inst), "s"));
          ("trace.spans_kept", (fi (List.length leaves), "count"));
          ("trace.spans_dropped", (fi dropped, "count"));
        ]
    end
  in
  let metric (nm, (v, u)) =
    (nm, json_obj [ ("value", json_num v); ("unit", json_string u) ])
  in
  print_endline
    (json_obj
       [
         ("workload", json_string !workload);
         ("ok", string_of_bool r.ok);
         ("verdict_s", json_num r.verdict_s);
         ("setup_s", json_num setup_s);
         ("peak_rss_mb", json_num rss);
         ("repeat", json_string r.repeat);
         ( "answer",
           json_obj (List.map (fun (k, v) -> (k, json_string v)) r.answer) );
         ("layer", json_obj (List.map metric layer));
       ])
