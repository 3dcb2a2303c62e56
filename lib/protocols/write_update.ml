open Ccr_core
open Ccr_refine
open Dsl

(* Home: [sh] = sharers, [pend] = writers whose rounds are deferred,
   [w] = writer being served, [todo] = sharers still to update this
   round, [val] = the line (last writer's id), [t]/[x]/[j] = binders. *)
let home =
  let vars =
    [
      ("sh", Value.Dset); ("pend", Value.Dset); ("todo", Value.Dset);
      ("w", Value.Drid); ("j", Value.Drid); ("t", Value.Drid);
      ("x", Value.Drid); ("vl", Value.Drid);
    ]
  in
  let rel_guards goto_more goto_empty =
    [
      recv_any "x" "relS" []
        ~cond:(not_ (is_empty (v "sh" -~ v "x")))
        ~assigns:[ ("sh", v "sh" -~ v "x"); ("todo", v "todo" -~ v "x"); ("x", rid 0) ]
        ~goto:goto_more;
      recv_any "x" "relS" []
        ~cond:(is_empty (v "sh" -~ v "x"))
        ~assigns:
          [ ("sh", empty_set); ("todo", empty_set); ("x", rid 0) ]
        ~goto:goto_empty;
    ]
  in
  process "home" ~vars ~init:"F"
    [
      state "F" [ recv_any "t" "reqS" [] ~goto:"FgS" ];
      state "FgS"
        [
          send_to (v "t") "grS" [ v "vl" ]
            ~assigns:[ ("sh", v "sh" +~ v "t"); ("t", rid 0) ]
            ~goto:"Sh";
        ];
      state "Sh"
        ([
           recv_any "t" "reqS" [] ~goto:"ShG";
           recv_any "x" "wr" []
             ~assigns:[ ("pend", v "pend" +~ v "x"); ("x", rid 0) ]
             ~goto:"WCheck";
         ]
        @ rel_guards "Sh" "F");
      state "ShG"
        [
          send_to (v "t") "grS" [ v "vl" ]
            ~assigns:[ ("sh", v "sh" +~ v "t"); ("t", rid 0) ]
            ~goto:"Sh";
        ];
      (* pick the next deferred writer, if any; its value is its id.  A
         writer with no other sharers gets acknowledged immediately. *)
      state "WCheck"
        [
          tau "next"
            ~choose:[ ("w", v "pend") ]
            ~cond:(not_ (is_empty (v "pend")))
            ~assigns:
              [
                ("pend", v "pend" -~ v "w");
                ("vl", v "w");
                ("todo", v "sh" -~ v "w");
                ("j", rid 0);
              ]
            ~goto:"UpdOrAck";
          tau "idle" ~cond:(is_empty (v "pend"))
            ~assigns:[ ("w", rid 0); ("j", rid 0) ]
            ~goto:"Sh";
        ];
      state "UpdOrAck"
        [
          tau "fanout" ~cond:(not_ (is_empty (v "todo"))) ~goto:"Upd";
          tau "solo" ~cond:(is_empty (v "todo")) ~goto:"WAck";
        ];
      (* propagate the new value to every other sharer; late writes pile
         onto the deferred set; evictions shrink the round.  A mid-round
         eviction cannot empty [sh]: the writer itself stays a sharer and
         cannot evict while waiting. *)
      state "Upd"
        ([
           send_to (v "j") "upd" [ v "vl" ]
             ~choose:[ ("j", v "todo") ]
             ~goto:"UW";
           recv_any "x" "wr" []
             ~assigns:[ ("pend", v "pend" +~ v "x"); ("x", rid 0) ]
             ~goto:"Upd";
         ]
        @ [
            recv_any "x" "relS" []
              ~cond:(not_ (is_empty (v "todo" -~ v "x")))
              ~assigns:
                [
                  ("sh", v "sh" -~ v "x");
                  ("todo", v "todo" -~ v "x");
                  ("x", rid 0);
                ]
              ~goto:"Upd";
            recv_any "x" "relS" []
              ~cond:(is_empty (v "todo" -~ v "x"))
              ~assigns:
                [
                  ("sh", v "sh" -~ v "x");
                  ("todo", empty_set);
                  ("x", rid 0);
                ]
              ~goto:"WAck";
          ]);
      state "UW"
        [
          recv_from (v "j") "updAck" []
            ~assigns:[ ("todo", v "todo" -~ v "j"); ("j", rid 0) ]
            ~goto:"UD";
        ];
      state "UD"
        [
          tau "more" ~cond:(not_ (is_empty (v "todo"))) ~goto:"Upd";
          tau "done" ~cond:(is_empty (v "todo")) ~goto:"WAck";
        ];
      state "WAck"
        [ send_to (v "w") "wrAck" [ v "vl" ] ~assigns:[ ("w", rid 0) ] ~goto:"WCheck" ];
    ]

let remote =
  process "remote"
    ~vars:[ ("vl", Value.Drid) ]
    ~init:"I"
    [
      state "I" [ tau "read" ~goto:"IwS" ];
      state "IwS" [ send_home "reqS" [] ~goto:"WgS" ];
      state "WgS" [ recv_home "grS" [ "vl" ] ~goto:"S" ];
      state "S"
        [
          tau "evict" ~goto:"SRel";
          tau "write" ~assigns:[ ("vl", self) ] ~goto:"WSend";
          recv_home "upd" [ "vl" ] ~goto:"UAck";
        ];
      state "UAck" [ send_home "updAck" [] ~goto:"S" ];
      state "SRel" [ send_home "relS" [] ~assigns:[ ("vl", rid 0) ] ~goto:"I" ];
      state "WSend" [ send_home "wr" [] ~goto:"WWait" ];
      (* the writer keeps serving earlier writers' updates while its own
         round is deferred — otherwise the system would deadlock *)
      state "WWait"
        [
          recv_home "wrAck" [ "vl" ] ~goto:"S";
          recv_home "upd" [ "vl" ] ~goto:"WUAck";
        ];
      state "WUAck" [ send_home "updAck" [] ~goto:"WWait" ];
    ]

let system = Dsl.system "write-update" ~home ~remote

(* Quiescence: nothing in flight or buffered anywhere, every node in a
   plain communication mode. *)
let quiescent (st : Async.state) =
  Array.for_all (( = ) []) st.Async.to_h
  && Array.for_all (( = ) []) st.Async.to_r
  && st.Async.h.h_buf = []
  && st.Async.h.h_mode = Async.Hcomm
  && Array.for_all
       (fun (r : Async.remote) -> r.r_mode = Async.Rcomm && r.r_buf = None)
       st.Async.r

let rv_invariants prog =
  let open Props in
  let sharers = rv_home_var prog "sh"
  and pending = rv_home_var prog "pend"
  and home_vl = rv_home_var prog "vl"
  and remote_vl = Prog.var_index prog.remote "vl"
  and home_settled = rv_home_in prog [ "Sh"; "ShG"; "F"; "FgS" ] in
  [
    ( "sharers_recorded",
      fun st ->
        let sh = sharers st in
        forall_remotes prog.Prog.n (fun i ->
            (not (Value.set_mem i sh))
            || List.mem (rv_remote_ctl prog st i)
                 [ "S"; "UAck"; "WSend"; "WWait"; "WUAck"; "SRel" ]) );
    (* once a round finishes and no writes are pending, passive sharers
       agree with the home *)
    ( "settled_sharers_agree",
      fun st ->
        (not (home_settled st))
        || (not (Value.set_is_empty (pending st)))
        || forall_remotes prog.Prog.n (fun i ->
               rv_remote_ctl prog st i <> "S"
               || Value.equal
                    st.Ccr_semantics.Rendezvous.r.(i).env.(remote_vl)
                    (home_vl st)) );
  ]

let async_invariants prog =
  let open Props in
  let sharers = as_home_var prog "sh"
  and pending = as_home_var prog "pend"
  and home_vl = as_home_var prog "vl"
  and remote_vl = Prog.var_index prog.remote "vl"
  and home_settled = as_home_in prog [ "Sh"; "F" ] in
  [
    ( "sharers_recorded",
      fun st ->
        let sh = sharers st in
        forall_remotes prog.Prog.n (fun i ->
            (not (Value.set_mem i sh))
            || List.mem (as_remote_ctl prog st i)
                 [ "S"; "UAck"; "WSend"; "WWait"; "WUAck"; "SRel" ]
            (* a freshly recorded sharer whose grant is still in flight *)
            || (match st.Async.r.(i).r_mode with
               | Async.Rwait _ -> true
               | _ -> false)) );
    (* the headline coherence property of an update protocol: at
       quiescence all copies agree *)
    ( "quiescent_copies_agree",
      fun st ->
        (not (quiescent st))
        || (not (home_settled st))
        || (not (Value.set_is_empty (pending st)))
        || forall_remotes prog.Prog.n (fun i ->
               as_remote_ctl prog st i <> "S"
               || Value.equal st.Async.r.(i).r_env.(remote_vl) (home_vl st))
    );
  ]
