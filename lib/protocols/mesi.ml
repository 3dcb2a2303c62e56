open Ccr_core
open Dsl

let tt = Expr.Const (Value.Vbool true)
let ff = Expr.Const (Value.Vbool false)

(* Home directory: [o] = exclusive holder (E or M — the home cannot tell,
   E→M upgrades are silent), [sh] = sharers, [t] = pending requester,
   [iv] = invalidation target, [x] = release binder, [d] = dirty-flag
   payload scratch (what a memory controller would consult). *)
let home =
  let vars =
    [
      ("o", Value.Drid); ("t", Value.Drid); ("sh", Value.Dset);
      ("iv", Value.Drid); ("x", Value.Drid); ("d", Value.Dbool);
    ]
  in
  process "home" ~vars ~init:"F"
    [
      state "F"
        [
          recv_any "t" "reqS" [] ~goto:"FgE";
          recv_any "t" "reqM" [] ~goto:"FgM";
        ];
      (* sole reader: grant exclusively (the E of MESI) *)
      state "FgE"
        [
          send_to (v "t") "grS" [ tt ]
            ~assigns:[ ("o", v "t"); ("t", rid 0); ("d", ff) ]
            ~goto:"X";
        ];
      state "FgM"
        [
          send_to (v "t") "grM" []
            ~assigns:[ ("o", v "t"); ("t", rid 0); ("d", ff) ]
            ~goto:"X";
        ];
      (* one exclusive holder *)
      state "X"
        [
          recv_from (v "o") "rel" [ "d" ]
            ~assigns:[ ("o", rid 0); ("d", ff) ]
            ~goto:"F";
          recv_any "t" "reqS" [] ~goto:"XD";
          recv_any "t" "reqM" [] ~goto:"XI";
        ];
      (* a second reader: downgrade the holder, share the line *)
      state "XD"
        [
          send_to (v "o") "down" [] ~goto:"XDW";
          recv_from (v "o") "rel" [ "d" ] ~goto:"FgE";
        ];
      state "XDW"
        [
          recv_from (v "o") "dAck" [ "d" ]
            ~assigns:[ ("sh", Expr.Set_singleton (v "o")); ("o", rid 0) ]
            ~goto:"GrS2";
        ];
      state "GrS2"
        [
          send_to (v "t") "grS" [ ff ]
            ~assigns:[ ("sh", v "sh" +~ v "t"); ("t", rid 0); ("d", ff) ]
            ~goto:"Sh";
        ];
      (* a writer while exclusive: invalidate the holder *)
      state "XI"
        [
          send_to (v "o") "inv" [] ~goto:"XIW";
          recv_from (v "o") "rel" [ "d" ] ~goto:"FgM";
        ];
      state "XIW" [ recv_from (v "o") "ID" [ "d" ] ~goto:"FgM" ];
      (* shared by the remotes in [sh] *)
      state "Sh"
        [
          recv_any "t" "reqS" [] ~goto:"ShG";
          recv_any "t" "reqM" [] ~goto:"Inv";
          recv_any "x" "relS" []
            ~cond:(not_ (is_empty (v "sh" -~ v "x")))
            ~assigns:[ ("sh", v "sh" -~ v "x"); ("x", rid 0) ]
            ~goto:"Sh";
          recv_any "x" "relS" []
            ~cond:(is_empty (v "sh" -~ v "x"))
            ~assigns:[ ("sh", empty_set); ("x", rid 0); ("t", rid 0) ]
            ~goto:"F";
        ];
      state "ShG"
        [
          send_to (v "t") "grS" [ ff ]
            ~assigns:[ ("sh", v "sh" +~ v "t"); ("t", rid 0) ]
            ~goto:"Sh";
        ];
      (* invalidation loop before an exclusive grant *)
      state "Inv"
        [
          send_to (v "iv") "inv" [] ~choose:[ ("iv", v "sh") ] ~goto:"InvW";
          recv_any "x" "relS" []
            ~cond:(not_ (is_empty (v "sh" -~ v "x")))
            ~assigns:[ ("sh", v "sh" -~ v "x"); ("x", rid 0) ]
            ~goto:"Inv";
          recv_any "x" "relS" []
            ~cond:(is_empty (v "sh" -~ v "x"))
            ~assigns:[ ("sh", empty_set); ("x", rid 0) ]
            ~goto:"GrM2";
        ];
      state "InvW"
        [
          recv_from (v "iv") "ID" [ "d" ]
            ~assigns:[ ("sh", v "sh" -~ v "iv"); ("iv", rid 0) ]
            ~goto:"InvD";
        ];
      state "InvD"
        [
          tau "more" ~cond:(not_ (is_empty (v "sh"))) ~goto:"Inv";
          tau "done" ~cond:(is_empty (v "sh")) ~goto:"GrM2";
        ];
      state "GrM2"
        [
          send_to (v "t") "grM" []
            ~assigns:[ ("o", v "t"); ("t", rid 0); ("d", ff) ]
            ~goto:"X";
        ];
    ]

let remote =
  process "remote"
    ~vars:[ ("x", Value.Dbool) ]
    ~init:"I"
    [
      state "I" [ tau "read" ~goto:"IwS"; tau "write" ~goto:"IwM" ];
      state "IwS" [ send_home "reqS" [] ~goto:"WgS" ];
      state "WgS" [ recv_home "grS" [ "x" ] ~goto:"Dec" ];
      (* the exclusive flag decides E vs S after the unconditional wait *)
      state "Dec"
        [
          tau "toE" ~cond:(v "x" ==~ tt) ~goto:"E";
          tau "toS" ~cond:(v "x" ==~ ff) ~goto:"S";
        ];
      state "E"
        [
          (* the MESI upgrade: no message at all *)
          tau "write_hit" ~goto:"M";
          tau "evict" ~goto:"ERel";
          recv_home "inv" [] ~goto:"EInv";
          recv_home "down" [] ~goto:"EDn";
        ];
      state "M"
        [
          tau "evict" ~goto:"MRel";
          recv_home "inv" [] ~goto:"MInv";
          recv_home "down" [] ~goto:"MDn";
        ];
      state "ERel" [ send_home "rel" [ ff ] ~goto:"I" ];
      state "MRel" [ send_home "rel" [ tt ] ~goto:"I" ];
      state "EInv" [ send_home "ID" [ ff ] ~goto:"I" ];
      state "MInv" [ send_home "ID" [ tt ] ~goto:"I" ];
      state "EDn" [ send_home "dAck" [ ff ] ~goto:"S" ];
      state "MDn" [ send_home "dAck" [ tt ] ~goto:"S" ];
      state "S" [ tau "evict" ~goto:"SRel"; recv_home "inv" [] ~goto:"SInv" ];
      state "SRel" [ send_home "relS" [] ~goto:"I" ];
      state "SInv" [ send_home "ID" [ ff ] ~goto:"I" ];
      state "IwM" [ send_home "reqM" [] ~goto:"WgM" ];
      state "WgM" [ recv_home "grM" [] ~goto:"M" ];
    ]

let system = Dsl.system "mesi" ~home ~remote

let exclusive = [ "E"; "M" ]
let readers = [ "S" ]

let rv_invariants prog =
  let open Props in
  let n_exclusive = rv_remotes_in prog exclusive
  and n_readers = rv_remotes_in prog readers
  and n_holders = rv_remotes_in prog (exclusive @ readers)
  and n_modified = rv_remotes_in prog [ "M" ]
  and home_free = rv_home_in prog [ "F"; "FgE"; "FgM" ]
  and home_exclusive = rv_home_in prog [ "X"; "XD"; "XDW"; "XI"; "XIW" ]
  and sharers = rv_home_var prog "sh" in
  let sharer_recorded st i =
    rv_remote_ctl prog st i <> "S" || Value.set_mem i (sharers st)
  in
  [
    ("single_exclusive", fun st -> n_exclusive st <= 1);
    ( "exclusive_excludes_readers",
      fun st -> n_exclusive st = 0 || n_readers st = 0 );
    ( "free_means_unheld",
      fun st -> (not (home_free st)) || n_holders st = 0 );
    ( "modified_implies_exclusive_dir",
      fun st -> n_modified st = 0 || home_exclusive st );
    ("sharers_recorded", all_remotes prog.Prog.n sharer_recorded);
  ]

let async_invariants prog =
  let open Props in
  let n_exclusive = as_remotes_in prog exclusive
  and n_readers = as_remotes_in prog readers
  and n_holders = as_remotes_in prog (exclusive @ readers)
  and n_modified = as_remotes_in prog [ "M" ]
  and home_free = as_home_in prog [ "F"; "FgE"; "FgM" ]
  and home_exclusive = as_home_in prog [ "X"; "XD"; "XDW"; "XI"; "XIW" ]
  and home_regranting = as_home_in prog [ "XDW"; "GrS2" ]
  and sharers = as_home_var prog "sh" in
  let sharer_recorded st i =
    as_remote_ctl prog st i <> "S"
    || Value.set_mem i (sharers st)
    || as_home_awaits st i
    || home_regranting st
  in
  [
    ("single_exclusive", fun st -> n_exclusive st <= 1);
    ( "exclusive_excludes_readers",
      fun st -> n_exclusive st = 0 || n_readers st = 0 );
    ( "free_means_unheld",
      fun st ->
        (not (home_free st)) || (not (as_home_idle st)) || n_holders st = 0
    );
    ( "modified_implies_exclusive_dir",
      fun st -> n_modified st = 0 || home_exclusive st );
    ("sharers_recorded", all_remotes prog.Prog.n sharer_recorded);
  ]
