(* Parallel/sequential equivalence of the exploration engines.

   The contract of [Explore.par_run] (DESIGN.md "Parallel exploration"):
   it reports what the sequential [Explore.run] reports, for any number
   of domains — [states], [transitions] and [max_depth] of complete runs,
   and on a violation or deadlock the same event, the counts at that
   event and the same counterexample. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Registry = Ccr_protocols.Registry

let jobs_list = [ 1; 2; 4 ]

(* Same synthetic systems as suite_explore: known counts. *)
let counter_system ~limit =
  Explore.
    {
      init = 0;
      succ =
        (fun s ->
          if s >= limit then []
          else [ ("inc", s + 1); ("double", min limit (2 * s + 1)) ]);
      encode = string_of_int;
      canon = None;
    }

let bits_system k =
  Explore.
    {
      init = 0;
      succ =
        (fun s -> List.init k (fun i -> (Fmt.str "flip%d" i, s lxor (1 lsl i))));
      encode = string_of_int;
      canon = None;
    }

let check_equiv name sys =
  let seq = Explore.run sys in
  List.iter
    (fun jobs ->
      let par = Explore.par_run ~jobs sys in
      checki (Fmt.str "%s: states (j=%d)" name jobs) seq.states par.states;
      checki
        (Fmt.str "%s: transitions (j=%d)" name jobs)
        seq.transitions par.transitions;
      checkb
        (Fmt.str "%s: complete (j=%d)" name jobs)
        true
        (outcome_complete par.outcome);
      checki
        (Fmt.str "%s: max_depth (j=%d)" name jobs)
        seq.max_depth par.max_depth;
      checkb
        (Fmt.str "%s: peak_frontier positive (j=%d)" name jobs)
        true (par.peak_frontier > 0))
    jobs_list

let tests =
  [
    case "par matches seq on synthetic systems" (fun () ->
        check_equiv "bits-8" (bits_system 8);
        check_equiv "counter-50" (counter_system ~limit:50));
    case "every registry protocol: rendezvous counts match for j in 1,2,4"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            match e.Registry.system with
            | None -> () (* hand-optimized: no rendezvous level *)
            | Some _ ->
              let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
              check_equiv (e.Registry.name ^ " rv n=2") (rv_system prog))
          Registry.all);
    case "every registry protocol: async counts match for j in 1,2,4"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
            check_equiv (e.Registry.name ^ " async n=2") (async_system prog))
          Registry.all);
    case "async n=3 migratory: counts match across domain counts" (fun () ->
        let prog =
          compile ~n:3 (Ccr_protocols.Migratory.system ())
        in
        check_equiv "migratory async n=3" (async_system prog));
    case "seeded invariant violation is detected with a valid trace"
      (fun () ->
        List.iter
          (fun jobs ->
            let r =
              Explore.par_run ~jobs ~trace:true
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
              let final = snd (List.nth path (List.length path - 1)) in
              checkb "trace ends at the violation" true (final >= 7);
              (* BFS order: every prefix state holds *)
              List.iteri
                (fun i (_, s) ->
                  if i < List.length path - 1 then
                    checkb "prefix ok" true (s < 7))
                path
            | None -> Alcotest.fail "expected a trace")
          jobs_list);
    case "violation on a protocol invariant, parallel" (fun () ->
        (* seed an invariant the migratory protocol cannot satisfy: the
           home never being in its exclusive state *)
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let bad_inv =
          ( "home-never-moves",
            fun (st : Ccr_refine.Async.state) ->
              st.Ccr_refine.Async.h.h_ctl
              = (Ccr_refine.Async.initial prog { k = 2 }).Ccr_refine.Async.h
                  .h_ctl )
        in
        let r =
          Explore.par_run ~jobs:2 ~trace:true ~invariants:[ bad_inv ]
            (async_system prog)
        in
        (match r.outcome with
        | Explore.Violation { invariant; _ } ->
          checks "name" "home-never-moves" invariant
        | _ -> Alcotest.fail "expected violation");
        match r.trace with
        | Some path -> checkb "trace nonempty" true (List.length path > 1)
        | None -> Alcotest.fail "expected a trace");
    case "deadlock is detected via the sequential-order merge" (fun () ->
        let r =
          Explore.par_run ~jobs:2 ~check_deadlock:true ~trace:true
            (counter_system ~limit:10)
        in
        (match r.outcome with
        | Explore.Deadlock s -> checki "deadlock at limit" 10 s
        | _ -> Alcotest.fail "expected deadlock");
        match r.trace with
        | Some path ->
          checkb "path ends at 10" true
            (snd (List.nth path (List.length path - 1)) = 10)
        | None -> Alcotest.fail "expected a trace");
    case "violations and deadlocks: counts and trace equal run's (j=1,2,4)"
      (fun () ->
        List.iter
          (fun jobs ->
            let eng =
              {
                eng_name = Fmt.str "j=%d" jobs;
                explore =
                  (fun ?prov ~on_level c ->
                    Explore.par_run ~jobs ?prov ~on_level ~trace:true
                      ~invariants:c.ev_invariants
                      ~check_deadlock:c.ev_deadlock c.ev_sys);
              }
            in
            List.iter (check_same_event eng) synthetic_event_cases;
            List.iter (check_same_event eng) (protocol_event_cases ()))
          jobs_list);
    case "a violation found late by a smaller tag is still reported (j=2)"
      (fun () ->
        (* Level 1 is [1..41]; frontier indices 1 (state 2) and 40 (state
           41) both lead to the violating state 99.  Index 1 sits in the
           first 32-state batch and is slow to expand, so the other domain
           offers 99 first (from index 40) and is still checking it when
           index 1 offers the same key with the smaller tag.  The check
           begun under the larger tag must still flag the entry. *)
        let edges =
          (0, List.init 41 (fun i -> i + 1)) :: [ (2, [ 99 ]); (41, [ 99 ]) ]
        in
        let base = table_system edges in
        let sys =
          {
            base with
            Explore.succ =
              (fun s ->
                if s = 2 then Unix.sleepf 0.02;
                base.Explore.succ s);
          }
        in
        let invariants =
          [
            ( "not-99",
              fun s ->
                if s = 99 then Unix.sleepf 0.1;
                s <> 99 );
          ]
        in
        check_same_event
          {
            eng_name = "j=2";
            explore =
              (fun ?prov ~on_level c ->
                Explore.par_run ~jobs:2 ?prov ~on_level ~trace:true
                  ~invariants:c.ev_invariants ~check_deadlock:c.ev_deadlock
                  c.ev_sys);
          }
          {
            ev_name = "late smaller tag";
            ev_sys = sys;
            ev_invariants = invariants;
            ev_deadlock = false;
            ev_key = string_of_int;
          });
    case "an event past the state cap reports the cap, as run does"
      (fun () ->
        check_cap_around_event (fun ~check_deadlock ~invariants ~max_states ->
            Explore.par_run ~jobs:2 ~check_deadlock ~invariants ~max_states
              (counter_system ~limit:100)));
    case "violation in the initial state, parallel" (fun () ->
        let r =
          Explore.par_run ~jobs:2 ~trace:true
            ~invariants:[ ("never", fun _ -> false) ]
            (bits_system 3)
        in
        match r.outcome with
        | Explore.Violation _ -> checki "only the root" 1 r.states
        | _ -> Alcotest.fail "expected violation");
    case "state cap reports Unfinished (level granularity)" (fun () ->
        let r = Explore.par_run ~jobs:2 ~max_states:10 (bits_system 8) in
        (match r.outcome with
        | Explore.Limit Explore.L_states -> ()
        | _ -> Alcotest.fail "expected state cap");
        (* the cap applies at BFS-level boundaries: at least the cap, at
           most one extra level *)
        checkb "at least the cap" true (r.states >= 10));
    case "memory cap reports Unfinished" (fun () ->
        let r = Explore.par_run ~jobs:2 ~max_mem_bytes:500 (bits_system 10) in
        match r.outcome with
        | Explore.Limit Explore.L_memory ->
          checkb "mem accounted" true (r.mem_bytes >= 500)
        | _ -> Alcotest.fail "expected memory cap");
    case "time cap triggers in the parallel engine" (fun () ->
        let slow =
          Explore.
            {
              init = 0;
              succ =
                (fun s ->
                  ignore (Sys.opaque_identity (List.init 2000 Fun.id));
                  [ ("n", (s + 1) mod 1000000); ("m", (s + 7) mod 1000000) ]);
              encode = string_of_int;
              canon = None;
            }
        in
        let r = Explore.par_run ~jobs:2 ~max_time_s:0.05 slow in
        match r.outcome with
        | Explore.Limit Explore.L_time -> ()
        | Explore.Complete -> Alcotest.fail "space too small for the cap"
        | _ -> Alcotest.fail "expected time cap");
    case "parallel peak_frontier is the largest BFS level" (fun () ->
        (* level-synchronous BFS over the 8-bit hypercube: level d holds
           C(8,d) states, so the watermark is C(8,4) = 70 exactly *)
        let r = Explore.par_run ~jobs:2 (bits_system 8) in
        checki "largest level" 70 r.peak_frontier;
        checki "max_depth" 8 r.max_depth);
  ]

let suite = ("par_explore", tests)
