(* Crash-safe checkpoint/resume (DESIGN.md §6h).

   The contract: a checkpoint taken at any save point, loaded back and
   resumed, reproduces the uninterrupted run's states, transitions and
   outcome exactly — for the sequential engine at any mid-level cut, and
   for the multi-process engine at level boundaries.  Damaged files
   (truncation at every byte, corruption) are refused with a message,
   never a crash; manifest mismatches are refused before any state is
   trusted.

   Fork discipline: the [Mpx] cases fork, so this suite runs before any
   suite that spawns a domain (see suite_mpx.ml); the [par_run] resume
   case spawns domains and therefore lives in [par_suite], registered
   after every forking suite. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Mpx = Ccr_modelcheck.Mpx
module Vstore = Ccr_modelcheck.Vstore
module Ckpt = Ccr_modelcheck.Ckpt
module J = Ccr_obs.Journal

(* counter_system / bits_system come from Test_util. *)

(* Scratch checkpoint directories are scoped: removed when the case
   body returns, pass or fail. *)
let in_dir f = with_temp_dir "ccr-test-ckpt" f

let manifest = [ ("spec_hash", J.Str "test") ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ckpt_to dir =
  Explore.
    { ck_resume = None; ck_save = Ckpt.saver ~dir ~manifest ~prov:None () }

let resume_of (l : _ Ckpt.loaded) =
  Explore.
    {
      ck_resume =
        Some
          {
            r_states = l.Ckpt.l_states;
            r_transitions = l.Ckpt.l_transitions;
            r_frontier = l.Ckpt.l_frontier;
            r_keys = l.Ckpt.l_keys;
          };
      ck_save = ignore;
    }

let load_ok dir =
  match Ckpt.load ~dir with
  | Ok l -> l
  | Error msg -> Alcotest.failf "checkpoint refused: %s" msg

(* Interrupt [run] at [cap] states with a checkpoint, then resume with
   [run] again and require the uninterrupted pin. *)
let check_resume name ?store run sys =
  let seq = Explore.run ?store sys in
  let caps = [ 1; seq.Explore.states / 3; seq.Explore.states / 2 ] in
  List.iter
    (fun cap ->
      let cap = max 1 cap in
      in_dir @@ fun dir ->
      let first = run ~max_states:cap ~ckpt:(ckpt_to dir) in
      checkb
        (Fmt.str "%s cap=%d: first leg capped" name cap)
        true
        (first.Explore.outcome = Explore.Limit Explore.L_states);
      let l = load_ok dir in
      checki (Fmt.str "%s cap=%d: saved states" name cap) first.Explore.states
        l.Ckpt.l_states;
      let r = run ~max_states:max_int ~ckpt:(resume_of l) in
      checki (Fmt.str "%s cap=%d: states" name cap) seq.Explore.states
        r.Explore.states;
      checki
        (Fmt.str "%s cap=%d: transitions" name cap)
        seq.Explore.transitions r.Explore.transitions;
      checki
        (Fmt.str "%s cap=%d: max_depth" name cap)
        seq.Explore.max_depth r.Explore.max_depth;
      checkb
        (Fmt.str "%s cap=%d: complete" name cap)
        true
        (r.Explore.outcome = Explore.Complete))
    caps

let tests =
  [
    (* ---- multi-process first: these fork ---- *)
    case "mpx: boundary checkpoint resumes to the sequential pin" (fun () ->
        let sys = bits_system 10 in
        let seq = Explore.run sys in
        in_dir @@ fun dir ->
        let first =
          Mpx.run ~workers:2 ~max_states:(seq.Explore.states / 2)
            ~ckpt:(ckpt_to dir) sys
        in
        checkb "first leg capped" true
          (first.Explore.outcome = Explore.Limit Explore.L_states);
        let l = load_ok dir in
        checki "boundary is a whole level" 0
          (Array.fold_left (fun a (_, _, o, _) -> max a o) 0 l.Ckpt.l_frontier);
        let r = Mpx.run ~workers:2 ~ckpt:(resume_of l) sys in
        checki "states" seq.Explore.states r.Explore.states;
        checki "transitions" seq.Explore.transitions r.Explore.transitions;
        checki "max_depth" seq.Explore.max_depth r.Explore.max_depth;
        (* a worker-count change between sessions is fine: ids are
           assigned by rank, not by worker *)
        let r3 = Mpx.run ~workers:3 ~ckpt:(resume_of (load_ok dir)) sys in
        checki "states (w=3)" seq.Explore.states r3.Explore.states);
    case "mpx: a sequential mid-level checkpoint is refused" (fun () ->
        let sys = counter_system ~limit:100 in
        in_dir @@ fun dir ->
        (* cap 5 lands mid-level in the sequential engine: some frontier
           entries carry a non-zero resume ordinal *)
        ignore (Explore.run ~max_states:5 ~ckpt:(ckpt_to dir) sys);
        let l = load_ok dir in
        checkb "really mid-level" true
          (Array.exists (fun (_, _, o, _) -> o > 0) l.Ckpt.l_frontier);
        match Mpx.run ~workers:2 ~ckpt:(resume_of l) sys with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "mpx: a crashed worker is respawned and the pin holds" (fun () ->
        let sys = bits_system 12 in
        let seq = Explore.run sys in
        let respawns = ref 0 in
        Unix.putenv "CCR_CRASH_AT" "worker=1,level=4";
        let r =
          Fun.protect
            ~finally:(fun () -> Unix.putenv "CCR_CRASH_AT" "")
            (fun () ->
              Mpx.run ~workers:2
                ~on_respawn:(fun ~worker:_ -> incr respawns)
                sys)
        in
        checkb "at least one respawn" true (!respawns >= 1);
        checki "states" seq.Explore.states r.Explore.states;
        checki "transitions" seq.Explore.transitions r.Explore.transitions);
    (* ---- sequential: fork-free, domain-free ---- *)
    case "seq: resume matches the uninterrupted run (all stores)" (fun () ->
        let sys = counter_system ~limit:400 in
        check_resume "counter mem"
          (fun ~max_states ~ckpt -> Explore.run ~max_states ~ckpt sys)
          sys;
        (* component boundaries, constant arity: the whole key is one
           component *)
        let split k = [| String.length k |] in
        check_resume "counter collapse" ~store:(Vstore.Collapse split)
          (fun ~max_states ~ckpt ->
            Explore.run ~store:(Vstore.Collapse split) ~max_states ~ckpt sys)
          sys;
        check_resume "counter disk" ~store:Vstore.Disk
          (fun ~max_states ~ckpt ->
            Explore.run ~store:Vstore.Disk ~max_states ~ckpt sys)
          sys);
    case "seq: every registry protocol resumes to its pin" (fun () ->
        List.iter
          (fun (e : Ccr_protocols.Registry.t) ->
            let prog = e.Ccr_protocols.Registry.instantiate ~reqrep:true ~n:2 in
            let sys = async_system prog in
            check_resume
              (e.Ccr_protocols.Registry.name ^ " async n=2")
              (fun ~max_states ~ckpt -> Explore.run ~max_states ~ckpt sys)
              sys)
          Ccr_protocols.Registry.all);
    case "seq: provenance rides the checkpoint" (fun () ->
        let sys = counter_system ~limit:100 in
        in_dir @@ fun dir ->
        let prov = Vstore.Prov.create () in
        ignore
          (Explore.run ~max_states:20 ~prov
             ~ckpt:
               Explore.
                 {
                   ck_resume = None;
                   ck_save = Ckpt.saver ~dir ~manifest ~prov:(Some prov) ();
                 }
             sys);
        let l = load_ok dir in
        checki "one slot per state" l.Ckpt.l_states
          (Array.length l.Ckpt.l_prov);
        (* replay provenance, resume, and require a valid counterexample *)
        let prov2 = Vstore.Prov.create () in
        Array.iteri
          (fun id (parent, ord) -> Vstore.Prov.record prov2 ~id ~parent ~ord)
          l.Ckpt.l_prov;
        let r =
          Explore.run ~prov:prov2 ~trace:true
            ~invariants:[ ("small", fun s -> s < 90) ]
            ~ckpt:(resume_of l) sys
        in
        (match r.Explore.outcome with
        | Explore.Violation { state; _ } -> checkb "violates" true (state >= 90)
        | _ -> Alcotest.fail "expected violation");
        match r.Explore.trace with
        | Some path ->
          checkb "trace ends at the violation" true
            (snd (List.nth path (List.length path - 1)) >= 90)
        | None -> Alcotest.fail "expected a trace");
    case "seq: traced resume without ~prov is refused up front" (fun () ->
        let sys = counter_system ~limit:100 in
        in_dir @@ fun dir ->
        ignore (Explore.run ~max_states:20 ~ckpt:(ckpt_to dir) sys);
        let l = load_ok dir in
        match Explore.run ~trace:true ~ckpt:(resume_of l) sys with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
          checkb ("names ~prov: " ^ msg) true (contains msg "~prov"));
    case "save is atomic and refuses every truncation" (fun () ->
        let sys = counter_system ~limit:60 in
        in_dir @@ fun dir ->
        ignore (Explore.run ~max_states:15 ~ckpt:(ckpt_to dir) sys);
        let ic = open_in_bin (Ckpt.file dir) in
        let n = in_channel_length ic in
        let bytes = really_input_string ic n in
        close_in ic;
        checkb "small enough to truncate exhaustively" true (n < 200_000);
        in_dir @@ fun dir2 ->
        ignore (Explore.run ~max_states:15 ~ckpt:(ckpt_to dir2) sys);
        let torn = ref 0 in
        for len = 0 to n - 1 do
          let oc = open_out_bin (Ckpt.file dir2) in
          output_string oc (String.sub bytes 0 len);
          close_out oc;
          match Ckpt.load ~dir:dir2 with
          | Error _ -> incr torn
          | Ok _ ->
            Alcotest.failf "truncation to %d bytes loaded successfully" len
        done;
        checki "every prefix refused" n !torn;
        (* flipping one payload byte must trip a CRC *)
        let b = Bytes.of_string bytes in
        Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 1));
        let oc = open_out_bin (Ckpt.file dir2) in
        output_bytes oc b;
        close_out oc;
        match Ckpt.load ~dir:dir2 with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "corrupted checkpoint loaded successfully");
    case "manifest mismatch is refused field by field" (fun () ->
        let found =
          [
            ("spec_hash", J.Str "aaa");
            ("protocol", J.Str "invalidate");
            ("n", J.Int 3);
          ]
        in
        checkb "same manifest resumes" true
          (Ckpt.mismatch ~expected:found ~found = None);
        (match
           Ckpt.mismatch
             ~expected:
               [
                 ("spec_hash", J.Str "bbb");
                 ("protocol", J.Str "invalidate");
                 ("n", J.Int 4);
               ]
             ~found
         with
        | None -> Alcotest.fail "expected a mismatch"
        | Some diff ->
          checkb "names spec_hash" true (contains diff "spec_hash");
          checkb "names n" true (contains diff "n:"));
        (* caps and engine shape are not guarded *)
        checkb "jobs may change" true
          (Ckpt.mismatch
             ~expected:(("jobs", J.Int 4) :: found)
             ~found:(("jobs", J.Int 1) :: found)
          = None));
    case "--checkpoint-every parses counts and periods" (fun () ->
        (match Ckpt.parse_every "50000" with
        | Ok (Ckpt.E_states 50000) -> ()
        | _ -> Alcotest.fail "state count form");
        (match Ckpt.parse_every "30s" with
        | Ok (Ckpt.E_secs s) -> checkb "30s" true (s = 30.0)
        | _ -> Alcotest.fail "seconds form");
        match Ckpt.parse_every "nope" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage accepted");
  ]

let par_tests =
  [
    case "par (j=4): boundary checkpoint resumes to the pin" (fun () ->
        let sys = bits_system 12 in
        let seq = Explore.run sys in
        in_dir @@ fun dir ->
        let first =
          Explore.par_run ~jobs:4 ~max_states:(seq.Explore.states / 2)
            ~ckpt:(ckpt_to dir) sys
        in
        checkb "first leg capped" true
          (first.Explore.outcome = Explore.Limit Explore.L_states);
        let l = load_ok dir in
        let r = Explore.par_run ~jobs:4 ~ckpt:(resume_of l) sys in
        checki "states" seq.Explore.states r.Explore.states;
        checki "transitions" seq.Explore.transitions r.Explore.transitions;
        checki "max_depth" seq.Explore.max_depth r.Explore.max_depth;
        (* cross-engine: a boundary checkpoint resumes sequentially too *)
        let rs = Explore.run ~ckpt:(resume_of (load_ok dir)) sys in
        checki "states (seq resume)" seq.Explore.states rs.Explore.states);
  ]

let suite = ("ckpt", tests)
let par_suite = ("ckpt-par", par_tests)
