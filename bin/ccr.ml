(* ccr: command-line front end to the refinement framework.

   Subcommands:
     list        catalogue of shipped protocols
     show        render a protocol (rendezvous or refined; ascii/dot/
                 promela/c)
     pairs       request/reply analysis report (§3.3)
     export      print a protocol in the textual .ccr syntax
     explain     derivation report: what the refinement did and why
     check       model-check a protocol level with its invariants
                 (--faults adds a budget of network faults; --harden
                 checks the retransmit/dedup-hardened transport)
     eq1         verify the §4 stuttering simulation
     sim         simulate the refined protocol and report efficiency
     run         execute the protocol on real threads, optionally through
                 the fault-injecting transport
     msc         message-sequence chart of a simulated execution
     progress    deadlock + AG-EF-progress analysis (§2.5)

   PROTOCOL arguments are registry names or .ccr file paths. *)

open Ccr_core
open Ccr_protocols
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Mpx = Ccr_modelcheck.Mpx
module Ckpt = Ccr_modelcheck.Ckpt
module Graph = Ccr_modelcheck.Graph
module Async = Ccr_refine.Async
module Fault = Ccr_faults.Fault
module Injected = Ccr_faults.Injected
module Plan = Ccr_faults.Plan
module Api = Ccr_serve.Api

(* A protocol argument is a registry name or a path to a [.ccr] file.
   File-based protocols get no built-in invariants; everything else
   (analysis, refinement, Eq. 1, simulation) applies unchanged. *)
let entry_of_file path =
  match Parse.system_of_file path with
  | sys ->
    (match Validate.check sys with
    | Ok _ ->
      Ok
        Registry.
          {
            name = sys.Ir.sys_name;
            doc = "loaded from " ^ path;
            system = Some sys;
            instantiate = (fun ~reqrep ~n -> Link.compile ~reqrep ~n sys);
            rv_invariants = (fun _ -> []);
            async_invariants = (fun _ -> []);
          }
    | Error es ->
      Error
        (`Msg
          (Fmt.str "%s does not validate:@,%a" path
             Fmt.(list ~sep:cut Validate.pp_error)
             es)))
  | exception exn -> Error (`Msg (Fmt.str "%a" Parse.pp_error exn))

let protocol_conv =
  let parse s =
    if Filename.check_suffix s ".ccr" then entry_of_file s
    else
      match Registry.find s with
      | Some e -> Ok e
      | None ->
        Error
          (`Msg
            (Fmt.str "unknown protocol %S (try: %s, or a .ccr file)" s
               (String.concat ", " (Registry.names ()))))
  in
  Cmdliner.Arg.conv (parse, fun ppf e -> Fmt.string ppf e.Registry.name)

open Cmdliner

let protocol_arg =
  Arg.(
    required
    & pos 0 (some protocol_conv) None
    & info [] ~docv:"PROTOCOL" ~doc:"Protocol name (see $(b,ccr list)).")

let n_arg =
  Arg.(
    value & opt int 2
    & info [ "n"; "remotes" ] ~docv:"N" ~doc:"Number of remote nodes.")

let k_arg =
  Arg.(
    value & opt int 2
    & info [ "k"; "buffer" ] ~docv:"K"
        ~doc:"Home buffer capacity (>= 2, Table 2).")

let generic_arg =
  Arg.(
    value & flag
    & info [ "generic" ]
        ~doc:
          "Disable the request/reply optimization (§3.3): every rendezvous \
           costs a request plus an ack.")

let max_states_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-states" ] ~docv:"S" ~doc:"State cap for explorations.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Worker domains for state-space exploration (1 = sequential).  \
           With J > 1, counterexample traces come from a sequential re-run \
           after the parallel search finds a violation or deadlock.")

let store_arg =
  Arg.(
    value
    & opt (enum [ ("mem", `Mem); ("collapse", `Collapse); ("disk", `Disk) ])
        `Mem
    & info [ "store" ] ~docv:"KIND"
        ~doc:
          "Visited-set representation: $(b,mem) (exact in-memory hash set), \
           $(b,collapse) (SPIN-style collapse compression: per-component \
           intern tables, states stored as tuples of small indices), or \
           $(b,disk) (out-of-core: key bytes in an unlinked temp file, only \
           the index in RAM).  All three give identical state and \
           transition counts; only memory use differs.  The report prints \
           resident vs raw bytes for the compressed stores.")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"W"
        ~doc:
          "Partition the state space over W forked worker processes (each \
           running $(b,-j) domains), exchanging frontier batches over \
           pipes.  State and transition counts are byte-identical to \
           sequential and $(b,-j) runs; memory caps meter the summed \
           per-worker stores.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject network faults from a budget spec: comma-separated \
           $(b,drop=K), $(b,dup=K), $(b,delay=K), $(b,pause=K), each \
           channel fault optionally filtered by message class as in \
           $(b,drop=1@ack) ($(b,@req), $(b,@ack), $(b,@nack)).  \
           $(b,check) explores every placement within the budget; \
           $(b,sim) and $(b,run) draw one deterministic plan from \
           $(b,--seed).")

let harden_arg =
  Arg.(
    value & flag
    & info [ "harden" ]
        ~doc:
          "Replace the paper's bare reliable channels with the hardened \
           transport: timeouts, sequence-numbered retransmission and \
           duplicate suppression.  Coherence and quiescence must then \
           survive the fault budget.")

(* Parse --faults, or die with a usage error. *)
let fault_spec_of = function
  | None -> None
  | Some s -> (
    match Fault.parse s with
    | Ok spec -> Some spec
    | Error msg ->
      Fmt.epr "bad --faults spec: %s@." msg;
      exit 1)

let instantiate (e : Registry.t) ~generic ~n =
  Ccr_obs.Trace.with_span "instantiate"
    ~args:[ ("protocol", Ccr_obs.Trace.Str e.Registry.name) ]
    (fun () -> e.Registry.instantiate ~reqrep:(not generic) ~n)

(* ---- observability flags -------------------------------------------------- *)

module Obs = struct
  module M = Ccr_obs.Metrics
  module T = Ccr_obs.Trace
  module J = Ccr_obs.Journal

  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Render a live status line on stderr while the engine runs.")

  let progress_interval_arg =
    Arg.(
      value & opt (some int) None
      & info [ "progress-interval" ] ~docv:"N"
          ~doc:
            "Sample $(b,--progress) every $(docv) state discoveries \
             (default 8192) in the sequential engine; tiny runs need a \
             small $(docv) to show any progress at all.  The parallel \
             engines always sample at BFS level boundaries.")

  let journal_arg =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append this run's events to $(docv) as schema-versioned \
             JSONL (one JSON object per line): configuration, level \
             boundaries, cap hits, fault budgets, violations with their \
             provenance-derived rule path, rule coverage, final stats.  \
             Journals are byte-identical across $(b,-j)/$(b,--workers) \
             settings; read them back with $(b,ccr report).")

  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON timeline of the run to \
             $(docv); open it in chrome://tracing or Perfetto.")

  let metrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry as one JSON object to $(docv).  \
             With $(b,-), the JSON goes to stdout and the human report \
             moves to stderr.")

  let write_file path s =
    let oc = open_out path in
    output_string oc s;
    output_char oc '\n';
    close_out oc

  (* Call before the instrumented work: installs the trace collector and
     makes the registry. *)
  let setup ~trace_file =
    if trace_file <> None then T.start ();
    M.create ()

  (* Where the human-readable report goes: stderr when stdout carries the
     metrics JSON. *)
  let report_ppf ~metrics_file =
    if metrics_file = Some "-" then Fmt.stderr else Fmt.stdout

  (* One run's journal.  Events buffer in memory; [jflush] appends them
     (plus the pending [end] event) to the file exactly once, so every
     exit path — success, violation, starvation — can call it first. *)
  type journal = {
    j : J.t;
    j_file : string;
    mutable j_end : (string * J.value) list;
    mutable j_flushed : bool;
  }

  let journal_of =
    Option.map (fun f ->
        { j = J.create (); j_file = f; j_end = []; j_flushed = false })

  let jev jnl ev fields = Option.iter (fun jn -> J.event jn.j ev fields) jnl
  let jend jnl fields = Option.iter (fun jn -> jn.j_end <- fields) jnl

  (* Append fields to the pending [end] event (after [journal_outcome]
     has set the base fields): interruption reason, resume command. *)
  let jend_extend jnl fields =
    Option.iter (fun jn -> jn.j_end <- jn.j_end @ fields) jnl

  let jflush jnl =
    Option.iter
      (fun jn ->
        if not jn.j_flushed then begin
          J.event jn.j "end" jn.j_end;
          J.append_to_file jn.j jn.j_file;
          jn.j_flushed <- true
        end)
      jnl

  (* Argument-error exits still end the journal: without this, a bad
     --faults spec or checkpoint mismatch left the journal file silently
     unwritten. *)
  let jfail jnl ~reason =
    jend jnl [ ("outcome", J.Str "error"); ("reason", J.Str reason) ];
    jflush jnl

  (* Level boundaries flow into the journal through the engines'
     [on_level] hook — the engines emit them at equivalent points, so the
     journal stays parallelism-independent. *)
  let on_level_of jnl =
    Option.map
      (fun jn ~depth ~states ->
        J.event jn.j "level" [ ("depth", J.Int depth); ("states", J.Int states) ])
      jnl

  (* Call after the instrumented work, before anything that may [exit]. *)
  let emit reg ~trace_file ~metrics_file =
    (match trace_file with
    | Some f ->
      (* Cap truncation must be loud: the trace footer carries the
         dropped count, and the metrics surface it too. *)
      let d = T.dropped () in
      if d > 0 then M.add (M.counter reg "trace.dropped_events") d;
      write_file f (T.stop ())
    | None -> ());
    match metrics_file with
    | Some "-" ->
      print_endline (M.to_json (M.snapshot reg));
      flush stdout
    | Some f -> write_file f (M.to_json (M.snapshot reg))
    | None -> ()

  (* The checker's per-enumerated-transition message meter, plus nack
     instants for the tracer.  Registered eagerly so the metric keys
     exist (as zeros) even for levels that never send a message. *)
  let meter reg =
    let open M in
    let req = counter reg "msg.req"
    and ack = counter reg "msg.ack"
    and nack = counter reg "msg.nack"
    and data = counter reg "msg.data" in
    let occ = histogram reg "home_buffer_occupancy" in
    Async.
      {
        m_sent =
          (fun w ->
            match w with
            | Ccr_refine.Wire.Req m ->
              incr req;
              if m.Ccr_refine.Wire.m_payload <> [] then incr data
            | Ccr_refine.Wire.Ack -> incr ack
            | Ccr_refine.Wire.Nack ->
              incr nack;
              if T.enabled () then T.instant "nack");
        m_buf = (fun o -> observe occ o);
      }
end

(* ---- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Registry.t) ->
        Fmt.pr "%-16s %s%s@." e.name e.doc
          (if e.system = None then " [refined level only]" else ""))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the shipped protocols.")
    Term.(const run $ const ())

(* ---- show ---------------------------------------------------------------- *)

let show_cmd =
  let level =
    Arg.(
      value
      & opt (enum [ ("rendezvous", `Rv); ("refined", `Refined) ]) `Rv
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Which protocol to render: $(b,rendezvous) or $(b,refined).")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("ascii", `Ascii); ("dot", `Dot); ("promela", `Promela);
               ("c", `C);
             ])
          `Ascii
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,ascii), $(b,dot), $(b,promela) (rendezvous \
             only), or $(b,c) (refined dispatch tables).")
  in
  let run (e : Registry.t) n generic level format harden =
    if harden && level = `Rv then begin
      Fmt.epr "--harden applies to the refined level only.@.";
      exit 1
    end;
    match (level, format, e.Registry.system) with
    | `Rv, `Ascii, Some sys -> Fmt.pr "%a@." Ccr_viz.Ascii.pp_system sys
    | `Rv, `Dot, Some sys ->
      print_string (Ccr_viz.Dot.of_process sys.Ir.home);
      print_string (Ccr_viz.Dot.of_process sys.Ir.remote)
    | `Rv, `Promela, Some sys ->
      print_string (Ccr_viz.Promela.of_system ~n sys)
    | `Rv, `C, Some _ ->
      Fmt.epr "C output applies to the refined level only.@.";
      exit 1
    | `Rv, _, None ->
      Fmt.epr "%s has no rendezvous level.@." e.name;
      exit 1
    | `Refined, fmt, _ -> (
      let prog = instantiate e ~generic ~n in
      let home = Ccr_refine.Compile.home_automaton ~harden prog in
      let remote = Ccr_refine.Compile.remote_automaton ~harden prog in
      match fmt with
      | `Ascii ->
        Fmt.pr "%a@.%a@." Ccr_viz.Ascii.pp_automaton home
          Ccr_viz.Ascii.pp_automaton remote
      | `Dot ->
        print_string (Ccr_viz.Dot.of_automaton home);
        print_string (Ccr_viz.Dot.of_automaton remote)
      | `C ->
        print_string (Ccr_refine.Codegen.emit_c home);
        print_string (Ccr_refine.Codegen.emit_c remote)
      | `Promela ->
        Fmt.epr "Promela export applies to the rendezvous level only.@.";
        exit 1)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render a protocol or its refined automata.")
    Term.(
      const run $ protocol_arg $ n_arg $ generic_arg $ level $ format
      $ harden_arg)

(* ---- pairs --------------------------------------------------------------- *)

let pairs_cmd =
  let run (e : Registry.t) =
    match e.Registry.system with
    | None ->
      Fmt.epr "%s has no rendezvous level.@." e.name;
      exit 1
    | Some sys ->
      let r = Reqrep.analyze sys in
      if r.pairs = [] then Fmt.pr "no request/reply pairs@."
      else List.iter (fun p -> Fmt.pr "pair: %a@." Reqrep.pp_pair p) r.pairs;
      List.iter
        (fun (m, why) -> Fmt.pr "not optimizable: %-8s %s@." m why)
        r.rejected
  in
  Cmd.v
    (Cmd.info "pairs"
       ~doc:"Report the request/reply analysis (§3.3) for a protocol.")
    Term.(const run $ protocol_arg)

(* ---- export -------------------------------------------------------------- *)

let export_cmd =
  let run (e : Registry.t) =
    match e.Registry.system with
    | None ->
      Fmt.epr "%s has no rendezvous level to export.@." e.name;
      exit 1
    | Some sys -> print_string (Parse.to_string sys)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Print a protocol in the textual .ccr syntax (editable, reloadable \
          with any command that takes a protocol).")
    Term.(const run $ protocol_arg)

(* ---- explain ------------------------------------------------------------- *)

let explain_cmd =
  let violation_arg =
    Arg.(
      value & flag
      & info [ "violation" ]
          ~doc:
            "Explore the refined level with provenance on and explain the \
             first safety violation, deadlock, or (under $(b,--faults)) \
             starvation witness: the rule-annotated path (Tables 1-2 row \
             names), the per-transaction message flow, and the final \
             state.  Exits 1 when there is nothing to explain.")
  in
  let state_arg =
    Arg.(
      value & opt (some int) None
      & info [ "state" ] ~docv:"ID"
          ~doc:
            "Explain visited state $(docv) of the refined level: walk the \
             provenance chain back to the initial state and print the \
             rule-annotated path.  Ids are BFS discovery order — the \
             same at any $(b,-j)/$(b,--workers) setting.")
  in
  (* The rule-annotated path: row names from Tables 1-2, one step per
     line, plus the per-transaction flow as an MSC when the labels carry
     async messages. *)
  let pp_path ppf ~lbl ~msc path =
    Fmt.pf ppf "rule path (%d steps):@." (List.length path - 1);
    let i = ref 0 in
    List.iter
      (fun (l, _) ->
        match l with
        | None -> ()
        | Some l ->
          incr i;
          Fmt.pf ppf "  %3d. %s@." !i (lbl l))
      path;
    match msc with
    | Some render ->
      Fmt.pf ppf "flow (message-sequence chart):@.%s@."
        (render (List.filter_map fst path))
    | None -> ()
  in
  let run (e : Registry.t) n k generic violation state_id faults harden
      max_states =
    match (violation, state_id) with
    | false, None -> (
      match e.Registry.system with
      | None ->
        Fmt.epr "%s has no rendezvous level to derive from.@." e.name;
        exit 1
      | Some sys -> print_string (Ccr_refine.Report.derive ~n sys))
    | _ -> (
      let prog = instantiate e ~generic ~n in
      let cfg = Async.{ k } in
      let fspec = fault_spec_of faults in
      let prov = Vstore.Prov.create () in
      match fspec with
      | None -> (
        let sys =
          Explore.
            {
              init = Async.initial prog cfg;
              succ = Async.successors prog cfg;
              encode = Async.encode;
              canon = None;
            }
        in
        let lbl = Fmt.str "%a" Async.pp_label in
        match state_id with
        | Some id ->
          (* BFS ids are dense in discovery order, so capping the
             exploration at id+1 states is enough to assign id. *)
          let _ =
            Explore.run ~prov ~max_states:(max max_states (id + 1))
              ~trace:false
              ~invariants:(e.Registry.async_invariants prog)
              sys
          in
          if id < 0 || id >= Vstore.Prov.count prov then begin
            Fmt.epr "state %d not reached (%d states discovered)@." id
              (Vstore.Prov.count prov);
            exit 1
          end;
          let path = Explore.replay_path prov sys id in
          Fmt.pr "%s (async, n=%d, k=%d): state %d@." e.name n k id;
          pp_path Fmt.stdout ~lbl ~msc:(Some (Ccr_viz.Msc.render prog)) path;
          (match List.rev path with
          | (_, st) :: _ ->
            Fmt.pr "state %d:@.%a@." id (Async.pp_state prog) st
          | [] -> ())
        | None -> (
          let r =
            Explore.run ~prov ~max_states ~check_deadlock:true ~trace:true
              ~invariants:(e.Registry.async_invariants prog)
              sys
          in
          match (r.Explore.outcome, r.Explore.trace) with
          | Explore.Violation { invariant; _ }, Some path ->
            Fmt.pr "%s (async, n=%d, k=%d): invariant %s violated@." e.name
              n k invariant;
            pp_path Fmt.stdout ~lbl ~msc:(Some (Ccr_viz.Msc.render prog))
              path;
            (match List.rev path with
            | (_, st) :: _ ->
              Fmt.pr "violating state:@.%a@." (Async.pp_state prog) st
            | [] -> ())
          | Explore.Deadlock _, Some path ->
            Fmt.pr "%s (async, n=%d, k=%d): deadlock@." e.name n k;
            pp_path Fmt.stdout ~lbl ~msc:(Some (Ccr_viz.Msc.render prog))
              path
          | _ ->
            Fmt.pr
              "%s (async, n=%d, k=%d): nothing to explain (%d states, \
               invariants hold)@."
              e.name n k r.Explore.states;
            exit 1))
      | Some spec -> (
        if state_id <> None then begin
          Fmt.epr "--state applies to the fault-free level only.@.";
          exit 1
        end;
        let mode = if harden then Injected.Hardened else Injected.Vanilla in
        let sys =
          Explore.
            {
              init = Injected.initial spec prog cfg;
              succ = Injected.successors mode spec prog cfg;
              encode = Injected.encode;
              canon = None;
            }
        in
        let lbl = Fmt.str "%a" Injected.pp_label in
        let msc render labels =
          render
            (List.filter_map
               (function Injected.Step al -> Some al | Injected.Fault _ -> None)
               labels)
        in
        let invariants =
          Injected.no_wedge
          :: List.map Injected.lift_invariant
               (e.Registry.async_invariants prog)
        in
        let r =
          Explore.run ~prov ~max_states ~check_deadlock:true ~trace:true
            ~invariants sys
        in
        match (r.Explore.outcome, r.Explore.trace) with
        | Explore.Violation { invariant; _ }, Some path ->
          Fmt.pr "%s (async, n=%d, k=%d, faults=%a): invariant %s violated@."
            e.name n k Fault.pp spec invariant;
          pp_path Fmt.stdout ~lbl
            ~msc:(Some (msc (Ccr_viz.Msc.render prog)))
            path
        | Explore.Deadlock _, Some path ->
          Fmt.pr "%s (async, n=%d, k=%d, faults=%a): deadlock@." e.name n k
            Fault.pp spec;
          pp_path Fmt.stdout ~lbl
            ~msc:(Some (msc (Ccr_viz.Msc.render prog)))
            path
        | Explore.Complete, _ -> (
          (* Safety held: the remaining explainable artifact is a
             starvation witness from the liveness analysis — rebuilt by
             the provenance-backed O(depth) parent-chain walk. *)
          let g = Graph.build ~max_states sys in
          if g.Graph.truncated then begin
            Fmt.epr "graph truncated; raise --max-states@.";
            exit 1
          end;
          let progress_of pred l =
            match l with
            | Injected.Step al -> Injected.completes al && pred al
            | Injected.Fault _ -> false
          in
          let starved =
            List.concat
              (List.init n (fun i ->
                   match
                     Graph.violates_ag_ef g
                       ~progress:(progress_of (fun al -> al.Async.actor = i))
                   with
                   | [] -> []
                   | bad -> [ (i, bad) ]))
          in
          match starved with
          | [] ->
            Fmt.pr
              "%s (async, n=%d, k=%d, faults=%a): nothing to explain \
               (safety, deadlock-freedom and liveness all hold)@."
              e.name n k Fault.pp spec;
            exit 1
          | (i, bad) :: _ ->
            let path = Graph.path_to g (List.hd bad) in
            Fmt.pr
              "%s (async, n=%d, k=%d, faults=%a): remote %d can starve@."
              e.name n k Fault.pp spec i;
            pp_path Fmt.stdout ~lbl
              ~msc:(Some (msc (Ccr_viz.Msc.render prog)))
              path;
            (match List.rev path with
            | (_, st) :: _ ->
              Fmt.pr "stuck state:@.%a@." (Injected.pp_fstate prog) st
            | [] -> ()))
        | _ ->
          Fmt.pr "nothing to explain (exploration hit a cap)@.";
          exit 1))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a protocol: the refinement derivation report by \
          default; with $(b,--violation) or $(b,--state), the \
          provenance-derived rule-annotated path to a violation, \
          starvation witness, or visited state.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ violation_arg
      $ state_arg $ faults_arg $ harden_arg $ max_states_arg)

(* ---- check --------------------------------------------------------------- *)

let check_cmd =
  let level =
    Arg.(
      value
      & opt (enum [ ("rendezvous", `Rv); ("async", `Async) ]) `Async
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Check the $(b,rendezvous) or the refined $(b,async) system.")
  in
  let mem =
    Arg.(
      value & opt (some int) None
      & info [ "mem" ] ~docv:"MB" ~doc:"Memory cap in megabytes.")
  in
  let symmetry =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("off", `Off); ("brute", `Brute) ]) `Auto
      & info [ "symmetry" ] ~docv:"MODE"
          ~doc:
            "Symmetry reduction over remote identities: $(b,auto) (the \
             default: fast signature-sort canonicalization, explore one \
             state per orbit), $(b,off) (explore the full space), or \
             $(b,brute) (the n! oracle canonicalizer, for cross-checking; \
             falls back past 6 remotes).  Counterexample traces are always \
             concrete, replayable runs.")
  in
  let prov_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("mem", Vstore.Prov.P_mem); ("disk", Vstore.Prov.P_disk) ]))
          None
      & info [ "prov" ] ~docv:"KIND"
          ~doc:
            "Record per-state provenance (parent id + fired-rule ordinal, \
             8 bytes per state) in $(b,mem) or out-of-core in $(b,disk).  \
             Counterexamples are then rebuilt by an O(depth) parent-chain \
             walk instead of the sequential re-exploration fallback that \
             $(b,-j)/$(b,--workers) runs otherwise need.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock cap for the exploration; when hit, the run stops \
             (exit 2) with an $(b,unfinished) outcome — and, with \
             $(b,--checkpoint), a final checkpoint to resume from.")
  in
  let checkpoint_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Write crash-safe exploration checkpoints into $(docv) \
             (created if missing): at BFS level boundaries per \
             $(b,--checkpoint-every), and always when stopping at a cap, \
             deadline or SIGINT/SIGTERM.  Writes are atomic \
             (temp-file + fsync + rename), so a kill at any instant \
             leaves a resumable file.  Implies $(b,--prov mem) unless \
             $(b,--prov) is given.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-every" ] ~docv:"N|Ns"
          ~doc:
            "Checkpoint write policy: a plain integer writes once \
             $(i,N) new states have accumulated, an $(b,s)-suffixed \
             number (e.g. $(b,30s)) writes once that many seconds have \
             passed — both evaluated at BFS level boundaries.  Default: \
             every boundary.")
  in
  let resume_arg =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"DIR"
          ~doc:
            "Resume the exploration checkpointed in $(docv) and keep \
             checkpointing there.  The checkpoint's spec hash, instance \
             parameters and semantics flags must match this command line \
             (a mismatch is refused with a field-by-field diff); store, \
             provenance kind, $(b,-j) and $(b,--workers) may change \
             freely.  Counts, traces and journal tails are byte-identical \
             to the uninterrupted run.")
  in
  let run (e : Registry.t) n k generic level symmetry faults harden max_states
      mem jobs store_sel workers prov_sel deadline checkpoint_dir
      checkpoint_every resume_dir progress progress_interval trace_file
      metrics_file journal_file =
    let workers = max 1 workers in
    let cfg =
      {
        Api.spec = Api.Named e.Registry.name;
        level;
        n;
        k;
        generic;
        symmetry;
        faults;
        harden;
        max_states;
        max_mem_mb = mem;
        deadline_s = deadline;
        store = store_sel;
        jobs;
      }
    in
    (* --resume DIR keeps checkpointing into DIR *)
    let ckpt_dir =
      match resume_dir with Some _ -> resume_dir | None -> checkpoint_dir
    in
    (* Checkpoints persist traces as provenance slots (the internal
       table of a run without --prov cannot survive a restart), so
       checkpointing forces provenance on. *)
    let prov_sel =
      if ckpt_dir <> None && prov_sel = None then Some Vstore.Prov.P_mem
      else prov_sel
    in
    let reg = Obs.setup ~trace_file in
    let ppf = Obs.report_ppf ~metrics_file in
    let meter = Obs.meter reg in
    let module J = Obs.J in
    let jnl = Obs.journal_of journal_file in
    let on_level = Obs.on_level_of jnl in
    (* Argument errors below this point still end the journal: the file
       gets an [end] event with outcome "error" instead of silently never
       appearing. *)
    let fail_usage msg =
      Obs.jfail jnl ~reason:msg;
      Fmt.epr "%s@." msg;
      exit 1
    in
    let fspec =
      match Api.fault_spec cfg with Ok s -> s | Error msg -> fail_usage msg
    in
    let ckpt_every =
      Option.map
        (fun s ->
          match Ckpt.parse_every s with
          | Ok e -> e
          | Error msg -> fail_usage msg)
        checkpoint_every
    in
    let prov = Option.map (fun kind -> Vstore.Prov.create ~kind ()) prov_sel in
    let sym_name = Api.symmetry_name cfg in
    let level_name = Api.level_name cfg in
    let faults_name = Api.faults_name cfg in
    (* Pins *what* is being explored (Ckpt.guard_keys); the marshalled IR
       catches two different .ccr files sharing a registry name. *)
    let spec_hash = Api.spec_hash e cfg in
    (* The static checkpoint manifest — loaded back, compared over
       [Ckpt.guard_keys], and carried across sessions of one run. *)
    let loaded =
      match resume_dir with
      | None -> None
      | Some dir -> (
        match (Ckpt.load ~dir : (Obj.t Ckpt.loaded, string) result) with
        | Error msg -> fail_usage msg
        | Ok l -> Some l)
    in
    let run_id, resumes =
      match loaded with
      | Some l -> (
        ( (match J.get_str (J.find (J.Obj l.Ckpt.l_manifest) "run_id") with
          | Some id -> id
          | None -> "unknown"),
          match J.get_int (J.find (J.Obj l.Ckpt.l_manifest) "resumes") with
          | Some r -> r + 1
          | None -> 1 ))
      | None ->
        ( String.sub
            (Digest.to_hex
               (Digest.string
                  (Fmt.str "%s %f %d" spec_hash (Unix.gettimeofday ())
                     (Unix.getpid ()))))
            0 12,
          0 )
    in
    let ckpt_manifest =
      [
        ("spec_hash", J.Str spec_hash);
        ("protocol", J.Str e.Registry.name);
        ("level", J.Str level_name);
        ("n", J.Int n);
        ("k", J.Int k);
        ("generic", J.Bool generic);
        ("symmetry", J.Str sym_name);
        ("faults", J.Str faults_name);
        ("harden", J.Bool harden);
        ("run_id", J.Str run_id);
        ("resumes", J.Int resumes);
        ("store", J.Str (Api.store_name cfg));
        ("max_states", J.Int max_states);
        ("jobs", J.Int jobs);
        ("workers", J.Int workers);
      ]
    in
    (match loaded with
    | Some l -> (
      match Ckpt.mismatch ~expected:ckpt_manifest ~found:l.Ckpt.l_manifest with
      | Some diff ->
        fail_usage
          (Fmt.str "cannot resume from %s: %s" (Option.get resume_dir) diff)
      | None ->
        Fmt.pf ppf "resuming from %s: %d states, %d transitions, depth %d@."
          (Option.get resume_dir) l.Ckpt.l_states l.Ckpt.l_transitions
          l.Ckpt.l_depth)
    | None -> ());
    (* SIGINT/SIGTERM ask the engines to stop at the next safe point, so
       the final checkpoint and journal are written before exit *)
    let interrupted = ref false in
    let interrupt =
      match ckpt_dir with
      | None -> None
      | Some _ ->
        List.iter
          (fun s ->
            try
              Sys.set_signal s
                (Sys.Signal_handle (fun _ -> interrupted := true))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        Some (fun () -> !interrupted)
    in
    (* The exact command that continues this run, for the report and the
       journal's end event: current argv minus the checkpoint flags, plus
       --resume DIR. *)
    let resume_command ?(drop_cap = false) dir =
      let quote a =
        if String.exists (fun c -> c = ' ' || c = '"' || c = '\'') a then
          Filename.quote a
        else a
      in
      (* --max-states is cumulative, so after an L_states stop repeating
         it would stop the resumed run before it expands anything *)
      let dropped =
        [ "--checkpoint"; "--checkpoint-every"; "--resume" ]
        @ if drop_cap then [ "--max-states" ] else []
      in
      let is_dropped a =
        List.exists
          (fun f -> a = f || String.starts_with ~prefix:(f ^ "=") a)
          dropped
      in
      let rec strip = function
        | [] -> []
        | a :: _ :: rest when List.mem a dropped -> strip rest
        | a :: rest when is_dropped a -> strip rest
        | a :: rest -> quote a :: strip rest
      in
      String.concat " "
        (strip (Array.to_list Sys.argv) @ [ "--resume"; quote dir ])
    in
    Obs.jev jnl "config"
      (Api.journal_config ~protocol:e.Registry.name cfg
      @
      (* only checkpointed runs carry a run identity: it is derived from
         the wall clock, and journals of plain runs must stay
         byte-identical across invocations *)
      match ckpt_dir with
      | None -> []
      | Some _ ->
        ("run_id", J.Str run_id)
        ::
        (if resume_dir <> None then
           [ ("resumed", J.Bool true); ("resumes", J.Int resumes) ]
         else []));
    (match fspec with
    | Some spec ->
      Obs.jev jnl "faults" [ ("budget", J.Str (Fmt.str "%a" Fault.pp spec)) ]
    | None -> ());
    let module Sym = Ccr_refine.Symmetry in
    let sym_stats = Sym.make_stats () in
    (* Orbit sizes are harvested from the canonicalizing domain's local
       storage, readable only when freshness is decided right there:
       sequential, single-process, fault-free auto runs. *)
    let on_orbit =
      if symmetry = `Auto && fspec = None && jobs <= 1 && workers <= 1 then begin
        let h = Obs.M.histogram reg "canon.orbit_states" in
        Some (fun o -> Obs.M.observe h o)
      end
      else None
    in
    let mem_bytes = Option.map (fun mb -> mb * 1024 * 1024) mem in
    let on_progress, finish_progress =
      if progress then
        let cb, fin = Ccr_obs.Progress.reporter () in
        (Some cb, fin)
      else (None, fun () -> ())
    in
    (* The store selector resolves per system: collapse needs the
       system's component splitter.  A system without one (the rv-faults
       wrapper) falls back to whole-key interning — correct, but no
       compression. *)
    let store_of split =
      match store_sel with
      | `Mem -> Vstore.Mem
      | `Disk -> Vstore.Disk
      | `Collapse ->
        Vstore.Collapse
          (match split with
          | Some s -> s
          | None -> fun key -> [| String.length key |])
    in
    (* The CLI's full-featured engine behind [Api.check_entry]:
       checkpointing, the multi-process Mpx engine, provenance and the
       progress UI — none of which the serve daemon needs. *)
    let explorer =
      {
        Api.explore =
          (fun ~check_deadlock ~split ~invariants sys ->
            let store = store_of split in
            (* Checkpoint control for this run's state type.  The
               marshalled frontier carries no type information, so the
               loaded payload is cast here — this is safe exactly because
               [Ckpt.mismatch] accepted the manifest above (same spec
               hash, instance and semantics flags imply the same state
               type). *)
            let ckpt_ctl =
              match ckpt_dir with
              | None -> None
              | Some dir ->
                let ck_resume =
                  match loaded with
                  | None -> None
                  | Some l ->
                    let l : _ Ckpt.loaded = Obj.magic l in
                    Option.iter
                      (fun p ->
                        Array.iteri
                          (fun id (parent, ord) ->
                            Vstore.Prov.record p ~id ~parent ~ord)
                          l.Ckpt.l_prov)
                      prov;
                    Some
                      {
                        Explore.r_states = l.Ckpt.l_states;
                        r_transitions = l.Ckpt.l_transitions;
                        r_frontier = l.Ckpt.l_frontier;
                        r_keys = l.Ckpt.l_keys;
                      }
                in
                let wrote = Obs.M.counter reg "checkpoint.writes" in
                let wrote_bytes = Obs.M.gauge reg "checkpoint.bytes" in
                let on_save ~bytes ~states:_ ~depth:_ =
                  Obs.M.incr wrote;
                  Obs.M.set wrote_bytes (float_of_int bytes)
                in
                Some
                  {
                    Explore.ck_resume;
                    ck_save =
                      Ckpt.saver ~dir ~manifest:ckpt_manifest ~prov
                        ?every:ckpt_every ~on_save ();
                  }
            in
            Obs.T.with_span "explore" (fun () ->
                try
                  if workers > 1 then
                    Mpx.run ~workers ~jobs ~store ~max_states
                      ?max_mem_bytes:mem_bytes ?max_time_s:deadline
                      ~check_deadlock ~trace:true ~invariants ?on_progress
                      ~metrics:reg ?prov ?on_level ?interrupt ?ckpt:ckpt_ctl
                      sys
                  else if jobs > 1 then
                    Explore.par_run ~jobs ~store ~max_states
                      ?max_mem_bytes:mem_bytes ?max_time_s:deadline
                      ~check_deadlock ~trace:true ~invariants ?on_progress
                      ?prov ?on_level ?interrupt ?ckpt:ckpt_ctl sys
                  else
                    Explore.run ~store ~max_states ?max_mem_bytes:mem_bytes
                      ?max_time_s:deadline ~check_deadlock ~trace:true
                      ~invariants ?on_progress
                      ?progress_every:progress_interval ?prov ?on_level
                      ?interrupt ?ckpt:ckpt_ctl sys
                with Invalid_argument msg when resume_dir <> None ->
                  (* a mid-level (sequential) checkpoint fed to a parallel
                     engine: the engines refuse with an actionable message *)
                  fail_usage msg));
      }
    in
    (* The implicit-nack tracer hook: rules H_T3/R_T3 are the refined
       protocol answering a request it cannot serve yet. *)
    let observe_label =
      if trace_file = None then None
      else
        Some
          (fun (l : Async.label) ->
            match l.Async.rule with
            | Async.H_T3 | Async.R_T3 -> Obs.T.instant "implicit-nack"
            | _ -> ())
    in
    match
      Api.check_entry ~explorer ~meter ?observe_label ~sym_stats ?on_orbit e
        cfg
    with
    | Error msg -> fail_usage msg
    | Ok (v, m) ->
      (* Emit the trace and metrics artifacts before the report below,
         which exits non-zero on any non-Complete outcome. *)
      finish_progress ();
      (match v.Api.v_explored with
      | "violation" ->
        Obs.T.instant
          ~args:
            [
              ( "invariant",
                Obs.T.Str (Option.value ~default:"" v.Api.v_invariant) );
            ]
          "violation"
      | "deadlock" -> Obs.T.instant "deadlock"
      | "complete" -> ()
      | _ -> Obs.T.instant "cap-hit");
      Obs.M.set
        (Obs.M.gauge reg "states_per_sec")
        (if m.Api.m_time_s > 0. then
           float_of_int v.Api.v_states /. m.Api.m_time_s
         else 0.);
      Obs.M.set
        (Obs.M.gauge reg "peak_frontier")
        (float_of_int m.Api.m_peak_frontier);
      Obs.M.set (Obs.M.gauge reg "max_depth") (float_of_int v.Api.v_max_depth);
      Obs.M.set (Obs.M.gauge reg "mem_bytes") (float_of_int m.Api.m_mem_bytes);
      Obs.M.set (Obs.M.gauge reg "raw_bytes") (float_of_int m.Api.m_raw_bytes);
      if symmetry <> `Off then begin
        Obs.M.add (Obs.M.counter reg "canon.calls") (Sym.calls sym_stats);
        Obs.M.add
          (Obs.M.counter reg "canon.fallbacks")
          (Sym.fallbacks sym_stats);
        Obs.M.add (Obs.M.counter reg "canon.perms") (Sym.perms_tried sym_stats);
        let tg = Obs.M.histogram reg "canon.tie_group_size" in
        Sym.iter_tie_groups sym_stats (fun ~size ~count ->
            Obs.M.observe_n tg size count);
        (* summed across domains, so the share may exceed 1 with -j *)
        Obs.M.set
          (Obs.M.gauge reg "canon.time_share")
          (if m.Api.m_time_s > 0. then
             Sym.canon_seconds sym_stats /. m.Api.m_time_s
           else 0.)
      end;
      List.iter
        (fun (ev, fields) -> Obs.jev jnl ev fields)
        (Api.journal_events v);
      Obs.jend jnl (Api.journal_end v);
      (match v.Api.v_explored with
      | "limit-states" | "limit-memory" | "limit-time" | "interrupted" -> (
        match ckpt_dir with
        | Some dir ->
          (* every cap/interrupt stop wrote a final checkpoint (or kept
             the previous one when the boundary was partial): tell the
             user — and the journal — exactly how to continue *)
          let cmd =
            resume_command ~drop_cap:(v.Api.v_explored = "limit-states") dir
          in
          Obs.jend_extend jnl
            [ ("reason", J.Str "interrupted"); ("resume", J.Str cmd) ];
          Fmt.epr "checkpoint saved in %s; resume with:@.  %s@." dir cmd
        | None -> ())
      | _ -> ());
      Option.iter
        (fun p ->
          Obs.M.set
            (Obs.M.gauge reg "provenance_bytes")
            (float_of_int (Vstore.Prov.bytes p)))
        prov;
      Option.iter
        (fun jn ->
          Obs.M.set
            (Obs.M.gauge reg "journal_bytes")
            (float_of_int (J.bytes jn.Obs.j)))
        jnl;
      Obs.emit reg ~trace_file ~metrics_file;
      let jobs_tag =
        String.concat ""
          [
            (if jobs > 1 then Fmt.str ", j=%d" jobs else "");
            (if workers > 1 then Fmt.str ", w=%d" workers else "");
            (match store_sel with
            | `Mem -> ""
            | `Collapse -> ", store=collapse"
            | `Disk -> ", store=disk");
          ]
      in
      let sym_tag =
        match symmetry with
        | `Off -> ""
        | `Auto -> ", sym=auto"
        | `Brute -> ", sym=brute"
      in
      let name =
        match (level, fspec) with
        | `Rv, Some spec ->
          Fmt.str "%s (rendezvous, n=%d, faults=%a%s)" e.Registry.name n
            Fault.pp spec jobs_tag
        | `Async, Some spec ->
          Fmt.str "%s (async, n=%d, k=%d%s, faults=%a, %s%s)" e.Registry.name
            n k
            (if generic then ", generic" else "")
            Fault.pp spec
            (if harden then "hardened" else "vanilla")
            jobs_tag
        | `Rv, None ->
          Fmt.str "%s (rendezvous, n=%d%s%s)" e.Registry.name n jobs_tag
            sym_tag
        | `Async, None ->
          Fmt.str "%s (async, n=%d, k=%d%s%s%s)" e.Registry.name n k
            (if generic then ", generic" else "")
            jobs_tag sym_tag
      in
      Fmt.pf ppf "%s: %d states, %d transitions, %.2fs, ~%.1f MB@." name
        v.Api.v_states v.Api.v_transitions m.Api.m_time_s
        (float_of_int m.Api.m_mem_bytes /. 1048576.);
      (if store_sel <> `Mem then
         let kind =
           match store_sel with
           | `Collapse -> "collapse"
           | `Disk -> "disk"
           | `Mem -> "mem"
         in
         Fmt.pf ppf "storage: %s, ~%.1f MB resident vs ~%.1f MB raw (%.1fx)@."
           kind
           (float_of_int m.Api.m_mem_bytes /. 1048576.)
           (float_of_int m.Api.m_raw_bytes /. 1048576.)
           (if m.Api.m_mem_bytes > 0 then
              float_of_int m.Api.m_raw_bytes /. float_of_int m.Api.m_mem_bytes
            else 0.));
      (match prov with
      | Some p ->
        Fmt.pf ppf "provenance: %s, %d entries, ~%.1f KB@."
          (Vstore.Prov.pkind_name (Option.get prov_sel))
          (Vstore.Prov.count p)
          (float_of_int (Vstore.Prov.bytes p) /. 1024.)
      | None -> ());
      if v.Api.v_canon_fallbacks > 0 then
        Fmt.pf ppf
          "warning: %d canonicalizations fell back to a non-canonical key \
           (symmetry reduction partial; counts are a sound upper bound)@."
          v.Api.v_canon_fallbacks;
      Fmt.pf ppf "outcome: %s@." v.Api.v_outcome_line;
      (match v.Api.v_trace with
      | _ :: _ ->
        Fmt.pf ppf "counterexample (%d steps):@."
          (List.length v.Api.v_trace - 1);
        (match v.Api.v_msc with
        | Some msc -> Fmt.pf ppf "%s@." msc
        | None -> ());
        List.iter (fun st -> Fmt.pf ppf "%s@." st) v.Api.v_trace;
        Obs.jflush jnl;
        exit 2
      | [] ->
        if v.Api.v_explored <> "complete" then begin
          Obs.jflush jnl;
          exit 2
        end);
      (match v.Api.v_liveness with
      | Some block -> Fmt.pf ppf "%s@." block
      | None -> ());
      if not v.Api.v_ok then begin
        Obs.jflush jnl;
        exit 2
      end;
      Obs.jflush jnl
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check a protocol level: reachability, coherence invariants, \
          deadlock.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ level
      $ symmetry $ faults_arg $ harden_arg $ max_states_arg $ mem $ jobs_arg
      $ store_arg $ workers_arg $ prov_arg $ deadline_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ Obs.progress_arg
      $ Obs.progress_interval_arg $ Obs.trace_arg $ Obs.metrics_arg
      $ Obs.journal_arg)

(* ---- eq1 ----------------------------------------------------------------- *)

let eq1_cmd =
  let run (e : Registry.t) n k generic max_states =
    if e.Registry.system = None then begin
      Fmt.epr
        "%s is hand-optimized: the refinement soundness argument does not \
         apply.@."
        e.name;
      exit 1
    end;
    let prog = instantiate e ~generic ~n in
    let v = Ccr_refine.Absmap.check_eq1 ~max_states prog Async.{ k } in
    Fmt.pr "%a@." Ccr_refine.Absmap.pp_verdict v;
    match v.failure with
    | None -> ()
    | Some f ->
      Fmt.pr "violating transition: %a@.from (abs):@.%a@.to (abs):@.%a@."
        Async.pp_label f.label
        (Ccr_semantics.Rendezvous.pp_state prog)
        f.from_abs
        (Ccr_semantics.Rendezvous.pp_state prog)
        f.to_abs;
      exit 2
  in
  Cmd.v
    (Cmd.info "eq1"
       ~doc:
         "Verify the paper's Equation 1: every asynchronous transition maps \
          to a stutter or a rendezvous transition.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ max_states_arg)

(* ---- sim ----------------------------------------------------------------- *)

let sim_cmd =
  let steps =
    Arg.(
      value & opt int 100_000
      & info [ "steps" ] ~docv:"STEPS" ~doc:"Transitions to execute.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let sched =
    Arg.(
      value & opt string "uniform"
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:
            "Scheduler: $(b,uniform), $(b,home-first), or $(b,starve:I) \
             (adversary that never schedules remote I).")
  in
  let run (e : Registry.t) n k generic steps seed sched faults harden progress
      trace_file metrics_file journal_file =
    let reg = Obs.setup ~trace_file in
    let ppf = Obs.report_ppf ~metrics_file in
    let module J = Obs.J in
    let jnl = Obs.journal_of journal_file in
    Obs.jev jnl "config"
      [
        ("cmd", J.Str "sim");
        ("protocol", J.Str e.Registry.name);
        ("n", J.Int n);
        ("k", J.Int k);
        ("generic", J.Bool generic);
        ("steps", J.Int steps);
        ("seed", J.Int seed);
        ("sched", J.Str sched);
        ("harden", J.Bool harden);
      ];
    (match fault_spec_of faults with
    | Some spec ->
      Obs.jev jnl "faults" [ ("budget", J.Str (Fmt.str "%a" Fault.pp spec)) ]
    | None -> ());
    let prog = instantiate e ~generic ~n in
    let fplan =
      Option.map
        (fun spec ->
          ( (if harden then Injected.Hardened else Injected.Vanilla),
            Plan.random ~n ~seed spec ))
        (fault_spec_of faults)
    in
    let sched =
      match String.split_on_char ':' sched with
      | [ "uniform" ] -> Ccr_simulate.Sched.uniform
      | [ "home-first" ] -> Ccr_simulate.Sched.home_first
      | [ "starve"; i ] -> Ccr_simulate.Sched.starve (int_of_string i)
      | _ ->
        Fmt.epr "unknown scheduler %S@." sched;
        exit 1
    in
    let t0 = Unix.gettimeofday () in
    let on_progress =
      if progress then
        Some
          (fun executed ->
            let el = Unix.gettimeofday () -. t0 in
            let rate = if el > 0. then float_of_int executed /. el else 0. in
            Printf.eprintf "\r  sim: %d/%d steps (%.0f steps/s)%!" executed
              steps rate)
      else None
    in
    let m =
      Obs.T.with_span "simulate" (fun () ->
          Ccr_simulate.Sim.run ~seed ~metrics:reg ?faults:fplan ?on_progress
            ~steps prog Async.{ k } sched)
    in
    if progress then Printf.eprintf "\r%s\r%!" (String.make 79 ' ');
    let el = Unix.gettimeofday () -. t0 in
    Obs.M.set
      (Obs.M.gauge reg "steps_per_sec")
      (if el > 0. then float_of_int m.Ccr_simulate.Sim.steps /. el else 0.);
    Obs.emit reg ~trace_file ~metrics_file;
    Obs.jev jnl "coverage"
      [
        ("family", J.Str "sim");
        ( "rules",
          J.List
            (List.filter_map
               (fun (r, c) ->
                 if c > 0 then
                   Some (J.List [ J.Str (Async.rule_name r); J.Int c ])
                 else None)
               m.Ccr_simulate.Sim.rule_counts) );
      ];
    Obs.jend jnl
      [
        ("outcome",
         J.Str
           (if m.Ccr_simulate.Sim.blocked = None then "complete"
            else "blocked"));
        ("steps", J.Int m.Ccr_simulate.Sim.steps);
        ("rendezvous", J.Int m.Ccr_simulate.Sim.rendezvous);
      ];
    Obs.jflush jnl;
    Fmt.pf ppf "%a@." Ccr_simulate.Sim.pp m;
    Fmt.pf ppf "rule counts:@.";
    List.iter
      (fun (r, c) ->
        if c > 0 then Fmt.pf ppf "  %-18s %d@." (Async.rule_name r) c)
      m.Ccr_simulate.Sim.rule_counts;
    match m.Ccr_simulate.Sim.blocked with
    | Some cfg ->
      (* deadlocked or wedged: show where the system got stuck *)
      Fmt.pf ppf "blocked configuration:@.%s@." cfg;
      exit 2
    | None -> ()
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Simulate the refined protocol and report efficiency metrics.  \
          Deadlocked or wedged runs print the blocked configuration and \
          exit 2.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ steps $ seed
      $ sched $ faults_arg $ harden_arg $ Obs.progress_arg $ Obs.trace_arg
      $ Obs.metrics_arg $ Obs.journal_arg)

(* ---- run ------------------------------------------------------------------ *)

let run_cmd =
  let budget =
    Arg.(
      value & opt int 100
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:"Protocol cycles each remote thread performs.")
  in
  let deadline =
    Arg.(
      value & opt float 10.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline; when hit, the per-node watchdog names \
             the stuck node and its control state.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Fault-plan seed.  Thread interleavings come from the OS \
             scheduler; the injected faults are deterministic in the \
             seed alone.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("threads", `Threads); ("loop", `Loop) ]) `Threads
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution engine: $(b,threads) runs one interpreting OS \
             thread per node (the differential oracle); $(b,loop) runs \
             the domain-sharded event loop over compiled microcode \
             tables ($(b,--domains), $(b,--batch)).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains"; "j" ] ~docv:"D"
          ~doc:
            "Loop engine only: shard the nodes over $(docv) OCaml \
             domains (clamped to the node count).")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Loop engine only: drain up to $(docv) messages per mailbox \
             visit and fire up to $(docv) local transitions per node \
             sweep.")
  in
  let steps =
    Arg.(
      value & opt (some int) None
      & info [ "steps" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) node transitions (both engines honour \
             the same cap; the run then reports a step-cap stop instead \
             of quiescence).")
  in
  let run (e : Registry.t) n k generic budget deadline seed engine domains
      batch steps faults harden metrics_file journal_file =
    let reg = Obs.setup ~trace_file:None in
    let ppf = Obs.report_ppf ~metrics_file in
    let module J = Obs.J in
    let jnl = Obs.journal_of journal_file in
    Obs.jev jnl "config"
      [
        ("cmd", J.Str "run");
        ("protocol", J.Str e.Registry.name);
        ("n", J.Int n);
        ("k", J.Int k);
        ("generic", J.Bool generic);
        ("budget", J.Int budget);
        ("seed", J.Int seed);
        ("harden", J.Bool harden);
        ( "engine",
          J.Str (match engine with `Threads -> "threads" | `Loop -> "loop") );
        ("domains", J.Int domains);
      ];
    (match fault_spec_of faults with
    | Some spec ->
      Obs.jev jnl "faults" [ ("budget", J.Str (Fmt.str "%a" Fault.pp spec)) ]
    | None -> ());
    let prog = instantiate e ~generic ~n in
    let fplan =
      Option.map
        (fun spec ->
          ( (if harden then Injected.Hardened else Injected.Vanilla),
            Plan.random ~n ~seed spec ))
        (fault_spec_of faults)
    in
    let s =
      match engine with
      | `Threads ->
        Ccr_runtime.Runtime.run ~seed ~deadline_s:deadline ?max_steps:steps
          ~metrics:reg ?faults:fplan ~budget
          ~invariants:(e.Registry.async_invariants prog)
          prog
          Async.{ k }
      | `Loop ->
        Ccr_runtime.Engine.run ~seed ~deadline_s:deadline ?max_steps:steps
          ~domains ~batch ~metrics:reg ?faults:fplan ~budget
          ~invariants:(e.Registry.async_invariants prog)
          prog
          Async.{ k }
    in
    Obs.emit reg ~trace_file:None ~metrics_file;
    Obs.jend jnl
      [
        ( "outcome",
          J.Str
            (if
               s.Ccr_runtime.Runtime.quiescent
               && s.Ccr_runtime.Runtime.invariant_failures = []
               && s.Ccr_runtime.Runtime.protocol_errors = []
             then "quiescent"
             else "stuck") );
        ( "invariant_failures",
          J.Int (List.length s.Ccr_runtime.Runtime.invariant_failures) );
        ( "protocol_errors",
          J.Int (List.length s.Ccr_runtime.Runtime.protocol_errors) );
      ];
    Obs.jflush jnl;
    Fmt.pf ppf "%a@." Ccr_runtime.Runtime.pp_stats s;
    if
      (not s.Ccr_runtime.Runtime.quiescent)
      || s.Ccr_runtime.Runtime.invariant_failures <> []
      || s.Ccr_runtime.Runtime.protocol_errors <> []
    then exit 2
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the refined protocol — on real threads or on the \
          domain-sharded loop engine ($(b,--engine)), optionally through \
          the fault-injecting transport — and check the coherence \
          invariants on the final configuration.  Non-quiescent runs \
          report the stuck node and exit 2.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ budget
      $ deadline $ seed $ engine $ domains $ batch $ steps $ faults_arg
      $ harden_arg $ Obs.metrics_arg $ Obs.journal_arg)

(* ---- fuzz ---------------------------------------------------------------- *)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed.  Case $(b,i) is drawn from the single integer \
             SEED+i, so any reported failing seed re-runs alone with \
             $(b,--seed S --count 1).")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of generated protocols.")
  in
  let max_states =
    Arg.(
      value & opt int 10_000
      & info [ "max-states" ] ~docv:"S"
          ~doc:
            "State cap for each oracle exploration (hitting the cap \
             bounds the work, it is not a failure).")
  in
  let oracles =
    Arg.(
      value & opt string "all"
      & info [ "oracles" ] ~docv:"LIST"
          ~doc:
            "Comma-separated oracle subset: $(b,validate), $(b,roundtrip), \
             $(b,rv-explore), $(b,async-explore), $(b,eq1), $(b,symmetry), \
             $(b,par), $(b,faults), $(b,store), $(b,engine), $(b,resume), \
             $(b,serve), or $(b,all).")
  in
  let out_dir =
    Arg.(
      value & opt string "_fuzz"
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Where shrunk counterexamples are written as $(b,.ccr) repro \
             files (created on the first failure).")
  in
  let no_matrix =
    Arg.(
      value & flag
      & info [ "no-matrix" ]
          ~doc:
            "Skip the legacy-family baseline pass and its Tables 1-2 \
             rule-coverage matrix.")
  in
  let run seed count max_states oracles out_dir no_matrix progress trace_file
      metrics_file journal_file =
    let only =
      if oracles = "all" then Ccr_fuzz.Oracle.all
      else
        List.map
          (fun s ->
            match Ccr_fuzz.Oracle.name_of_string (String.trim s) with
            | Ok o -> o
            | Error msg ->
              Fmt.epr "%s@." msg;
              exit 1)
          (String.split_on_char ',' oracles)
    in
    let reg = Obs.setup ~trace_file in
    let ppf = Obs.report_ppf ~metrics_file in
    let module J = Obs.J in
    let jnl = Obs.journal_of journal_file in
    Obs.jev jnl "config"
      [
        ("cmd", J.Str "fuzz");
        ("seed", J.Int seed);
        ("count", J.Int count);
        ("max_states", J.Int max_states);
        ("oracles", J.Str oracles);
      ];
    let on_case =
      if progress then
        Some (fun i -> Printf.eprintf "\r  fuzz: %d/%d cases%!" (i + 1) count)
      else None
    in
    let report =
      Obs.T.with_span "fuzz" (fun () ->
          Ccr_fuzz.Driver.run ~only ~legacy_matrix:(not no_matrix)
            ~metrics:reg ?on_case ~seed ~count ~max_states ())
    in
    if progress then Printf.eprintf "\r%s\r%!" (String.make 40 ' ');
    (* All artifacts — trace, metrics, journal — land before the failure
       exit below, so a failing campaign still leaves its record. *)
    Obs.emit reg ~trace_file ~metrics_file;
    let coverage_pairs arr =
      List.mapi
        (fun i rule ->
          J.List [ J.Str (Async.rule_name rule); J.Int arr.(i) ])
        Async.all_rules
    in
    Obs.jev jnl "coverage"
      [
        ("family", J.Str "general");
        ("rules", J.List (coverage_pairs report.Ccr_fuzz.Driver.coverage));
      ];
    (match report.Ccr_fuzz.Driver.legacy_coverage with
    | Some legacy ->
      Obs.jev jnl "coverage"
        [
          ("family", J.Str "legacy");
          ("rules", J.List (coverage_pairs legacy));
        ]
    | None -> ());
    Obs.jend jnl
      [
        ( "outcome",
          J.Str
            (if report.Ccr_fuzz.Driver.failures = [] then "complete"
             else "failures") );
        ("cases", J.Int count);
        ("failures", J.Int (List.length report.Ccr_fuzz.Driver.failures));
      ];
    Obs.jflush jnl;
    Fmt.pf ppf "%a"
      (Ccr_fuzz.Driver.pp
         ~matrix:
           ((not no_matrix) && List.mem Ccr_fuzz.Oracle.Async_explore only))
      report;
    match Ccr_fuzz.Driver.write_failures ~out_dir report with
    | [] -> ()
    | paths ->
      List.iter (fun p -> Fmt.pf ppf "wrote %s@." p) paths;
      exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the whole pipeline: generate seeded \
          valid-by-construction protocols far beyond the shipped family, \
          run every oracle (validation, exploration, Eq. 1, symmetry and \
          parallel agreement, hardened faults, print/parse round-trip), \
          shrink any failure to a minimal committed .ccr repro, and report \
          the Tables 1-2 rule-coverage matrix.")
    Term.(
      const run $ seed $ count $ max_states $ oracles $ out_dir $ no_matrix
      $ Obs.progress_arg $ Obs.trace_arg $ Obs.metrics_arg $ Obs.journal_arg)

(* ---- report -------------------------------------------------------------- *)

let report_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:
            "Artifact directory: run journals ($(b,*.jsonl), written by \
             $(b,--journal)) and benchmark dumps ($(b,BENCH_*.json), \
             written by $(b,make bench-json)).")
  in
  let html_arg =
    Arg.(
      value & flag
      & info [ "html" ] ~doc:"Emit a self-contained HTML page instead of \
                              markdown.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let run dir html out =
    let md = Ccr_obs.Run_report.to_markdown ~dir in
    let s = if html then Ccr_obs.Run_report.html_of_markdown md else md in
    match out with
    | None -> print_string s
    | Some f ->
      let oc = open_out f in
      output_string oc s;
      close_out oc;
      Fmt.pr "wrote %s@." f
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate run journals and benchmark JSON from a directory into \
          one markdown (or HTML) report: run table, violation paths, the \
          fuzz rule-coverage matrix, state-count tables, histograms.")
    Term.(const run $ dir_arg $ html_arg $ out_arg)

(* ---- msc ----------------------------------------------------------------- *)

let msc_cmd =
  let steps =
    Arg.(
      value & opt int 40
      & info [ "steps" ] ~docv:"STEPS" ~doc:"Transitions to render.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let run (e : Registry.t) n k generic steps seed =
    let prog = instantiate e ~generic ~n in
    print_string (Ccr_viz.Msc.render_run ~seed ~steps prog Async.{ k })
  in
  Cmd.v
    (Cmd.info "msc"
       ~doc:
         "Render a message-sequence chart of a uniformly scheduled \
          execution of the refined protocol.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ steps $ seed)

(* ---- progress ------------------------------------------------------------ *)

let progress_cmd =
  let run (e : Registry.t) n k generic max_states =
    let prog = instantiate e ~generic ~n in
    let cfg = Async.{ k } in
    let g =
      Ccr_modelcheck.Graph.build ~max_states
        Explore.
          {
            init = Async.initial prog cfg;
            succ = Async.successors prog cfg;
            encode = Async.encode;
            canon = None;
          }
    in
    let progress_label (l : Async.label) =
      match l.rule with
      | Async.H_C1 | Async.H_C1_silent | Async.R_C3_ack | Async.R_C3_silent
      | Async.R_repl_recv | Async.H_T1_repl ->
        true
      | _ -> false
    in
    let dead = Ccr_modelcheck.Graph.deadlocks g in
    let bad = Ccr_modelcheck.Graph.violates_ag_ef g ~progress:progress_label in
    Fmt.pr
      "%d states%s; %d deadlocks; %d states from which no rendezvous can \
       complete@."
      (Array.length g.states)
      (if g.truncated then " (truncated: raise --max-states)" else "")
      (List.length dead) (List.length bad);
    (match bad with
    | b :: _ ->
      Fmt.pr "example losing state:@.%a@." (Async.pp_state prog) g.states.(b)
    | [] -> ());
    if dead <> [] || bad <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "progress"
       ~doc:
         "Check forward progress (§2.5): no deadlock, and from every \
          reachable state some rendezvous can still complete.")
    Term.(
      const run $ protocol_arg $ n_arg $ k_arg $ generic_arg $ max_states_arg)

(* ---- serve --------------------------------------------------------------- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 8377
      & info [ "port" ] ~docv:"P"
          ~doc:
            "TCP port to listen on (loopback only).  $(b,0) picks an \
             ephemeral port — read it back with $(b,--port-file).")
  in
  let port_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port number to $(docv) once listening.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Worker threads draining the job queue.  Explorations are \
             serialized on one engine lock (the canonicalizers keep \
             domain-local scratch); extra workers pipeline queueing, \
             caching and I/O.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Pending-job queue capacity; a full queue answers 429.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache: one JSON file per (spec \
             hash, level, n, k, symmetry, faults, harden, max-states, \
             store) key.  Hits return the recorded verdict and journal \
             with zero states explored.")
  in
  let cap_arg =
    Arg.(
      value & opt int 10_000_000
      & info [ "max-states" ] ~docv:"S"
          ~doc:"Clamp submitted per-job state caps to $(docv).")
  in
  let run port port_file workers queue cache_dir cap journal_file =
    let module J = Obs.J in
    let t =
      Ccr_serve.Daemon.start ~port ~workers ~queue_cap:queue ?cache_dir
        ~max_states_cap:cap ()
    in
    let bound = Ccr_serve.Daemon.port t in
    let jnl = Obs.journal_of journal_file in
    Obs.jev jnl "config"
      [
        ("cmd", J.Str "serve");
        ("port", J.Int bound);
        ("workers", J.Int workers);
        ("queue", J.Int queue);
        ("cache", J.Bool (cache_dir <> None));
      ];
    Option.iter (fun f -> Obs.write_file f (string_of_int bound)) port_file;
    Fmt.pr "ccr serve: listening on 127.0.0.1:%d@." bound;
    let stop = ref false in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    while not !stop do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Ccr_serve.Daemon.stop t;
    Obs.jend jnl
      [
        ("outcome", J.Str "shutdown");
        ("jobs_done", J.Int (Ccr_serve.Daemon.jobs_done t));
      ];
    Obs.jflush jnl
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the checking-as-a-service daemon: a loopback HTTP/1.1 JSON \
          API ($(b,POST /jobs), $(b,GET /jobs/ID), $(b,GET \
          /jobs/ID/events), $(b,GET /metrics)) over a bounded job queue \
          and an optional content-addressed result cache.")
    Term.(
      const run $ port_arg $ port_file_arg $ workers_arg $ queue_arg
      $ cache_dir_arg $ cap_arg $ Obs.journal_arg)

(* ---- client -------------------------------------------------------------- *)

let client_cmd =
  let port_arg =
    Arg.(
      value & opt int 8377
      & info [ "port" ] ~docv:"P" ~doc:"Daemon port on 127.0.0.1.")
  in
  let fail_request = function
    | Ok r -> r
    | Error msg ->
      Fmt.epr "ccr client: %s@." msg;
      exit 1
  in
  let sleep_poll () =
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let submit_cmd =
    let spec_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"PROTOCOL"
            ~doc:"Registry protocol name, or a .ccr file (sent inline).")
    in
    let level_arg =
      Arg.(
        value
        & opt (enum [ ("rendezvous", `Rv); ("async", `Async) ]) `Async
        & info [ "level" ] ~docv:"LEVEL"
            ~doc:"Check the $(b,rendezvous) or the refined $(b,async) system.")
    in
    let symmetry_arg =
      Arg.(
        value
        & opt (enum [ ("auto", `Auto); ("off", `Off); ("brute", `Brute) ]) `Auto
        & info [ "symmetry" ] ~docv:"MODE"
            ~doc:"Symmetry reduction: $(b,auto), $(b,off) or $(b,brute).")
    in
    let wait_arg =
      Arg.(
        value & flag
        & info [ "wait" ]
            ~doc:"Poll until the job finishes and print the final job object.")
    in
    let run port spec_str n k generic level symmetry faults harden max_states
        store_sel wait =
      let module J = Obs.J in
      let spec =
        if Filename.check_suffix spec_str ".ccr" then begin
          match
            let ic = open_in_bin spec_str in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          with
          | s -> Api.Inline s
          | exception Sys_error msg ->
            Fmt.epr "ccr client: %s@." msg;
            exit 1
        end
        else Api.Named spec_str
      in
      let cfg =
        {
          Api.default with
          Api.spec;
          level;
          n;
          k;
          generic;
          symmetry;
          faults;
          harden;
          max_states;
          store = store_sel;
        }
      in
      let body = J.to_string (Api.config_to_json cfg) in
      let status, resp =
        fail_request
          (Ccr_serve.Http.request ~port ~meth:"POST" ~path:"/jobs" ~body ())
      in
      if status >= 400 then begin
        print_endline resp;
        exit 1
      end;
      if not wait then print_endline resp
      else begin
        let id =
          match
            Option.bind (J.parse resp) (fun j -> J.get_str (J.find j "id"))
          with
          | Some id -> id
          | None ->
            print_endline resp;
            exit 1
        in
        let rec poll () =
          let _, body =
            fail_request
              (Ccr_serve.Http.request ~port ~meth:"GET"
                 ~path:("/jobs/" ^ id) ())
          in
          match
            Option.bind (J.parse body) (fun j -> J.get_str (J.find j "status"))
          with
          | Some "done" -> print_endline body
          | Some "failed" ->
            print_endline body;
            exit 1
          | _ ->
            sleep_poll ();
            poll ()
        in
        poll ()
      end
    in
    Cmd.v
      (Cmd.info "submit" ~doc:"Submit a check job ($(b,POST /jobs)).")
      Term.(
        const run $ port_arg $ spec_arg $ n_arg $ k_arg $ generic_arg
        $ level_arg $ symmetry_arg $ faults_arg $ harden_arg $ max_states_arg
        $ store_arg $ wait_arg)
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB" ~doc:"Job id (from $(b,submit)).")
  in
  let status_cmd =
    let run port id =
      let status, body =
        fail_request
          (Ccr_serve.Http.request ~port ~meth:"GET" ~path:("/jobs/" ^ id) ())
      in
      print_endline body;
      if status >= 400 then exit 1
    in
    Cmd.v
      (Cmd.info "status" ~doc:"Fetch a job ($(b,GET /jobs/ID)).")
      Term.(const run $ port_arg $ id_arg)
  in
  let events_cmd =
    let run port id =
      let status, body =
        fail_request
          (Ccr_serve.Http.request ~port ~meth:"GET"
             ~path:("/jobs/" ^ id ^ "/events") ())
      in
      print_string body;
      if status >= 400 then exit 1
    in
    Cmd.v
      (Cmd.info "events"
         ~doc:
           "Stream a job's schema-v1 journal events \
            ($(b,GET /jobs/ID/events)).")
      Term.(const run $ port_arg $ id_arg)
  in
  let metrics_cmd =
    let run port =
      let status, body =
        fail_request
          (Ccr_serve.Http.request ~port ~meth:"GET" ~path:"/metrics" ())
      in
      print_string body;
      if status >= 400 then exit 1
    in
    Cmd.v
      (Cmd.info "metrics"
         ~doc:"Fetch the service metrics in OpenMetrics text format.")
      Term.(const run $ port_arg)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,ccr serve) daemon over its JSON API.")
    [ submit_cmd; status_cmd; events_cmd; metrics_cmd ]

let () =
  let info =
    Cmd.info "ccr" ~version:"1.0.0"
      ~doc:
        "Derive efficient asynchronous cache-coherence protocols from \
         rendezvous specifications by refinement (Nalumasu & \
         Gopalakrishnan, IPPS 1998)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; show_cmd; pairs_cmd; export_cmd; explain_cmd; check_cmd; eq1_cmd;
            sim_cmd; run_cmd; fuzz_cmd; report_cmd; msc_cmd; progress_cmd;
            serve_cmd; client_cmd;
          ]))
