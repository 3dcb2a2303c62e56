(* Multi-process exploration.

   The contract of [Mpx.run] (DESIGN.md §6e): state and transition
   counts are byte-identical to the sequential [Explore.run] at every
   worker and job count — ownership partitions the key space, so
   freshness is race-free, and the parent assigns global indices by
   sequential-BFS rank.  On a violation or deadlock the parent picks the
   sequential-first event itself, so the event, the counts at it and the
   counterexample equal [Explore.run]'s too. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Mpx = Ccr_modelcheck.Mpx
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Registry = Ccr_protocols.Registry

(* counter_system / bits_system come from Test_util. *)

(* The OCaml 5 runtime refuses [Unix.fork] once any domain has ever been
   spawned in the process — even one long since joined.  So this suite
   runs FIRST in the binary (see test_main.ml), every forking case comes
   before the one case that spawns in-process domains (the workers=1
   delegation, kept last), and the worker counts here all fork.  The
   (w=1, j=1) config delegates to the plain sequential engine, which is
   fork-safe. *)
let configs = [ (1, 1); (2, 1); (2, 2) ]

let check_equiv ?store name sys =
  let seq = Explore.run sys in
  List.iter
    (fun (workers, jobs) ->
      let r = Mpx.run ~workers ~jobs ?store sys in
      checki
        (Fmt.str "%s: states (w=%d j=%d)" name workers jobs)
        seq.states r.states;
      checki
        (Fmt.str "%s: transitions (w=%d j=%d)" name workers jobs)
        seq.transitions r.transitions;
      checkb
        (Fmt.str "%s: complete (w=%d j=%d)" name workers jobs)
        true
        (outcome_complete r.outcome);
      checki
        (Fmt.str "%s: max_depth (w=%d j=%d)" name workers jobs)
        seq.max_depth r.max_depth)
    configs

let tests =
  [
    case "mpx matches seq on synthetic systems" (fun () ->
        check_equiv "bits-8" (bits_system 8);
        check_equiv "counter-50" (counter_system ~limit:50));
    case "every registry protocol: async counts match across worker configs"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
            check_equiv (e.Registry.name ^ " async n=2") (async_system prog))
          Registry.all);
    case "workers compose with the compressed stores" (fun () ->
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let sys = async_system prog in
        check_equiv ~store:(Vstore.Collapse (Async.split_key prog))
          "migratory n=3 collapse" sys;
        check_equiv ~store:Vstore.Disk "migratory n=3 disk" sys);
    case "per-worker stores hold disjoint partitions" (fun () ->
        let seq = Explore.run (bits_system 10) in
        let r = Mpx.run ~workers:2 (bits_system 10) in
        (* mem/raw sum the per-worker stores; each worker holds a strict
           subset, so the totals match the state count, not exceed it *)
        checki "states" seq.states r.states;
        checkb "raw accounted" true (r.raw_bytes > 0);
        checkb "split across workers" true (r.mem_bytes > 0));
    case "violation is detected with a valid trace" (fun () ->
        let r =
          Mpx.run ~workers:2 ~trace:true
            ~invariants:[ ("below7", fun s -> s < 7) ]
            (counter_system ~limit:100)
        in
        (match r.outcome with
        | Explore.Violation { invariant; state } ->
          checks "name" "below7" invariant;
          checkb "state breaks it" true (state >= 7)
        | _ -> Alcotest.fail "expected violation");
        match r.trace with
        | Some path ->
          checkb "trace ends at the violation" true
            (snd (List.nth path (List.length path - 1)) >= 7)
        | None -> Alcotest.fail "expected a trace");
    case "deadlock is detected via the sequential-order merge" (fun () ->
        let r =
          Mpx.run ~workers:2 ~check_deadlock:true ~trace:true
            (counter_system ~limit:10)
        in
        match r.outcome with
        | Explore.Deadlock s -> checki "deadlock at limit" 10 s
        | _ -> Alcotest.fail "expected deadlock");
    case "violations and deadlocks: counts and trace equal run's (w=2,3)"
      (fun () ->
        List.iter
          (fun workers ->
            let eng =
              {
                eng_name = Fmt.str "w=%d" workers;
                explore =
                  (fun ?prov ~on_level c ->
                    Mpx.run ~workers ?prov ~on_level ~trace:true
                      ~invariants:c.ev_invariants
                      ~check_deadlock:c.ev_deadlock c.ev_sys);
              }
            in
            List.iter (check_same_event eng) synthetic_event_cases;
            List.iter (check_same_event eng) (protocol_event_cases ()))
          [ 2; 3 ]);
    case "an event past the state cap reports the cap, as run does"
      (fun () ->
        check_cap_around_event (fun ~check_deadlock ~invariants ~max_states ->
            Mpx.run ~workers:2 ~check_deadlock ~invariants ~max_states
              (counter_system ~limit:100)));
    case "state cap applies at level granularity" (fun () ->
        let r = Mpx.run ~workers:2 ~max_states:10 (bits_system 8) in
        (match r.outcome with
        | Explore.Limit Explore.L_states -> ()
        | _ -> Alcotest.fail "expected state cap");
        checkb "at least the cap" true (r.states >= 10));
    case "prov counterexample matches the sequential engine (workers=2)"
      (fun () ->
        let prog =
          (Option.get (Registry.find "migratory")).Registry.instantiate
            ~reqrep:true ~n:2
        in
        let sys = async_system prog in
        let g = Ccr_modelcheck.Graph.build sys in
        let states = g.Ccr_modelcheck.Graph.states in
        let target = Async.encode states.(Array.length states - 1) in
        let invariants =
          [ ("not-last", fun st -> Async.encode st <> target) ]
        in
        let sig_of (r : (_, _) Explore.stats) =
          match r.Explore.trace with
          | None -> []
          | Some path ->
            List.map
              (fun (l, st) ->
                (Option.map (Fmt.str "%a" Async.pp_label) l, Async.encode st))
              path
        in
        let seq = Explore.run ~trace:true ~invariants sys in
        checkb "seq violates" true
          (match seq.Explore.outcome with
          | Explore.Violation _ -> true
          | _ -> false);
        List.iter
          (fun kind ->
            let prov = Vstore.Prov.create ~kind () in
            let r = Mpx.run ~workers:2 ~prov ~trace:true ~invariants sys in
            checkb
              (Vstore.Prov.pkind_name kind ^ ": trace matches seq")
              true
              (sig_of r = sig_of seq))
          [ Vstore.Prov.P_mem; Vstore.Prov.P_disk ]);
    case "journal is byte-identical to the sequential engine (workers=2)"
      (fun () ->
        let journal_of run =
          let j = Ccr_obs.Journal.create () in
          let on_level ~depth ~states =
            Ccr_obs.Journal.event j "level"
              [
                ("depth", Ccr_obs.Journal.Int depth);
                ("states", Ccr_obs.Journal.Int states);
              ]
          in
          ignore (run ~on_level);
          Ccr_obs.Journal.contents j
        in
        (* complete run *)
        let sys = counter_system ~limit:400 in
        let seq = journal_of (fun ~on_level -> Explore.run ~on_level sys) in
        checkb "non-empty" true (String.length seq > 0);
        checks "complete run identical"
          seq
          (journal_of (fun ~on_level -> Mpx.run ~workers:2 ~on_level sys));
        (* violating run, with provenance *)
        let invariants = [ ("small", fun s -> s < 210) ] in
        let vseq =
          journal_of (fun ~on_level ->
              Explore.run
                ~prov:(Vstore.Prov.create ())
                ~on_level ~invariants ~trace:true sys)
        in
        checks "violating run identical"
          vseq
          (journal_of (fun ~on_level ->
               Mpx.run ~workers:2
                 ~prov:(Vstore.Prov.create ())
                 ~on_level ~invariants ~trace:true sys)));
    (* keep last: spawns domains in this process, which forbids any
       further fork in the binary *)
    case "workers=1 delegates to the in-process engines" (fun () ->
        let seq = Explore.run (bits_system 8) in
        List.iter
          (fun jobs ->
            let r = Mpx.run ~workers:1 ~jobs (bits_system 8) in
            checki (Fmt.str "states (j=%d)" jobs) seq.states r.states;
            checki
              (Fmt.str "transitions (j=%d)" jobs)
              seq.transitions r.transitions)
          [ 1; 2 ]);
  ]

let suite = ("mpx", tests)
