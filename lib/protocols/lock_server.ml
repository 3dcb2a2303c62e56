open Ccr_core
open Dsl

let home =
  process "lock_home" ~vars:[ ("c", Value.Drid) ] ~init:"U"
    [
      state "U" [ recv_any "c" "acq" [] ~goto:"G" ];
      state "G" [ send_to (v "c") "grant" [] ~goto:"L" ];
      state "L" [ recv_from (v "c") "rel" [] ~assigns:[ ("c", rid 0) ] ~goto:"U" ];
    ]

let remote =
  process "lock_remote" ~vars:[] ~init:"T"
    [
      state "T" [ tau "work" ~goto:"A" ];
      state "A" [ send_home "acq" [] ~goto:"W" ];
      state "W" [ recv_home "grant" [] ~goto:"C" ];
      state "C" [ tau "done" ~goto:"R" ];
      state "R" [ send_home "rel" [] ~goto:"T" ];
    ]

let system = Dsl.system "lock-server" ~home ~remote

let rv_invariants prog =
  let open Props in
  let n_critical = rv_remotes_in prog [ "C" ]
  and n_holding = rv_remotes_in prog [ "C"; "R" ]
  and home_unlocked = rv_home_in prog [ "U"; "G" ] in
  [
    ("mutual_exclusion", fun st -> n_critical st <= 1);
    ( "unlocked_means_uncritical",
      fun st -> (not (home_unlocked st)) || n_holding st = 0 );
  ]

let async_invariants prog =
  let open Props in
  let n_critical = as_remotes_in prog [ "C" ]
  and home_unlocked = as_home_in prog [ "U"; "G" ] in
  [
    ("mutual_exclusion", fun st -> n_critical st <= 1);
    (* [R] is excluded here: a remote sits in [R] until the ack of its
       [rel] arrives, by which time the home may already be unlocked *)
    ( "unlocked_means_uncritical",
      fun st -> (not (home_unlocked st)) || n_critical st = 0 );
  ]
