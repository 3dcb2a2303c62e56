open Ccr_core
open Dsl

(* Home directory state: [sh] = sharer set, [o] = owner (meaningful in the
   M-family states), [t] = pending requester, [iv] = sharer currently
   being invalidated, [x] = binder for spontaneous releases. *)
let home =
  let vars =
    [
      ("sh", Value.Dset);
      ("o", Value.Drid);
      ("t", Value.Drid);
      ("iv", Value.Drid);
      ("x", Value.Drid);
    ]
  in
  let reset_reader = [ ("x", rid 0) ] in
  process "home" ~vars ~init:"F"
    [
      (* line unused *)
      state "F"
        [
          recv_any "t" "reqS" [] ~goto:"FgS";
          recv_any "t" "reqM" [] ~goto:"FgM";
        ];
      state "FgS"
        [
          send_to (v "t") "grS" []
            ~assigns:[ ("sh", v "sh" +~ v "t"); ("t", rid 0) ]
            ~goto:"Sh";
        ];
      state "FgM"
        [ send_to (v "t") "grM" [] ~assigns:[ ("o", v "t"); ("t", rid 0) ] ~goto:"M" ];
      (* shared by the remotes in [sh] *)
      state "Sh"
        [
          recv_any "t" "reqS" [] ~goto:"ShG";
          recv_any "t" "reqM" [] ~goto:"Inv";
          recv_any "x" "relS" []
            ~cond:(not_ (is_empty (v "sh" -~ v "x")))
            ~assigns:(("sh", v "sh" -~ v "x") :: reset_reader)
            ~goto:"Sh";
          recv_any "x" "relS" []
            ~cond:(is_empty (v "sh" -~ v "x"))
            ~assigns:([ ("sh", empty_set); ("t", rid 0) ] @ reset_reader)
            ~goto:"F";
        ];
      state "ShG"
        [
          send_to (v "t") "grS" []
            ~assigns:[ ("sh", v "sh" +~ v "t"); ("t", rid 0) ]
            ~goto:"Sh";
        ];
      (* invalidation loop: revoke every sharer, then grant M to [t] *)
      state "Inv"
        [
          send_to (v "iv") "inv" [] ~choose:[ ("iv", v "sh") ] ~goto:"InvW";
          recv_any "x" "relS" []
            ~cond:(not_ (is_empty (v "sh" -~ v "x")))
            ~assigns:(("sh", v "sh" -~ v "x") :: reset_reader)
            ~goto:"Inv";
          recv_any "x" "relS" []
            ~cond:(is_empty (v "sh" -~ v "x"))
            ~assigns:(("sh", empty_set) :: reset_reader)
            ~goto:"Grant";
        ];
      (* the reply wait must be unconditional for the inv/ID pair to be
         recognized; the empty-set test happens in the internal state
         [InvD] that follows *)
      state "InvW"
        [
          recv_from (v "iv") "ID" []
            ~assigns:[ ("sh", v "sh" -~ v "iv"); ("iv", rid 0) ]
            ~goto:"InvD";
        ];
      state "InvD"
        [
          tau "more" ~cond:(not_ (is_empty (v "sh"))) ~goto:"Inv";
          tau "done" ~cond:(is_empty (v "sh")) ~goto:"Grant";
        ];
      state "Grant"
        [
          send_to (v "t") "grM" []
            ~assigns:[ ("o", v "t"); ("iv", rid 0); ("t", rid 0) ]
            ~goto:"M";
        ];
      (* owned exclusively by [o] *)
      state "M"
        [
          recv_from (v "o") "relM" []
            ~assigns:[ ("o", rid 0); ("t", rid 0) ]
            ~goto:"F";
          recv_any "t" "reqS" [] ~goto:"MwS";
          recv_any "t" "reqM" [] ~goto:"MwM";
        ];
      state "MwS"
        [
          send_to (v "o") "inv" [] ~goto:"MwSW";
          recv_from (v "o") "relM" [] ~goto:"GrantS";
        ];
      state "MwSW" [ recv_from (v "o") "ID" [] ~goto:"GrantS" ];
      state "GrantS"
        [
          send_to (v "t") "grS" []
            ~assigns:
              [ ("sh", Expr.Set_singleton (v "t")); ("o", rid 0); ("t", rid 0) ]
            ~goto:"Sh";
        ];
      state "MwM"
        [
          send_to (v "o") "inv" [] ~goto:"MwMW";
          recv_from (v "o") "relM" [] ~goto:"Grant";
        ];
      state "MwMW" [ recv_from (v "o") "ID" [] ~goto:"Grant" ];
    ]

let remote =
  process "remote" ~vars:[] ~init:"I"
    [
      state "I" [ tau "read" ~goto:"IwS"; tau "write" ~goto:"IwM" ];
      state "IwS" [ send_home "reqS" [] ~goto:"WgS" ];
      state "WgS" [ recv_home "grS" [] ~goto:"S" ];
      state "S" [ tau "evict" ~goto:"SRel"; recv_home "inv" [] ~goto:"SId" ];
      state "SRel" [ send_home "relS" [] ~goto:"I" ];
      state "SId" [ send_home "ID" [] ~goto:"I" ];
      state "IwM" [ send_home "reqM" [] ~goto:"WgM" ];
      state "WgM" [ recv_home "grM" [] ~goto:"M" ];
      state "M" [ tau "evict" ~goto:"MRel"; recv_home "inv" [] ~goto:"MId" ];
      state "MRel" [ send_home "relM" [] ~goto:"I" ];
      state "MId" [ send_home "ID" [] ~goto:"I" ];
    ]

let system = Dsl.system "invalidate" ~home ~remote

let readers = [ "S" ]
let writers = [ "M" ]

let rv_invariants prog =
  let open Props in
  let n_writers = rv_remotes_in prog writers
  and n_readers = rv_remotes_in prog readers
  and n_holders = rv_remotes_in prog (readers @ writers)
  and home_free = rv_home_in prog [ "F"; "FgS"; "FgM" ]
  and sharers = rv_home_var prog "sh" in
  let sharer_recorded st i =
    rv_remote_ctl prog st i <> "S" || Value.set_mem i (sharers st)
  in
  [
    ("single_writer", fun st -> n_writers st <= 1);
    ( "writer_excludes_readers",
      fun st -> n_writers st = 0 || n_readers st = 0 );
    ( "free_means_unheld",
      fun st -> (not (home_free st)) || n_holders st = 0 );
    ("sharers_recorded", all_remotes prog.n sharer_recorded);
  ]

let async_invariants prog =
  let open Props in
  let n_writers = as_remotes_in prog writers
  and n_readers = as_remotes_in prog readers
  and n_holders = as_remotes_in prog (readers @ writers)
  and home_free = as_home_in prog [ "F"; "FgS"; "FgM" ]
  and sharers = as_home_var prog "sh" in
  let sharer_recorded st i =
    as_remote_ctl prog st i <> "S"
    || Value.set_mem i (sharers st)
    || as_home_awaits st i
  in
  [
    ("single_writer", fun st -> n_writers st <= 1);
    ( "writer_excludes_readers",
      fun st -> n_writers st = 0 || n_readers st = 0 );
    (* both weakened to idle-home situations: under the generic scheme a
       grantee enters its new state while the home still waits for the
       ack of the grant *)
    ( "free_means_unheld",
      fun st ->
        (not (home_free st)) || (not (as_home_idle st)) || n_holders st = 0
    );
    ("sharers_recorded", all_remotes prog.n sharer_recorded);
  ]
