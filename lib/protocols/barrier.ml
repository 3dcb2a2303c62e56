open Ccr_core
open Ccr_refine
open Dsl

let home =
  process "home"
    ~vars:[ ("s", Value.Dset); ("x", Value.Drid); ("j", Value.Drid) ]
    ~init:"C"
    [
      (* collect arrivals until everyone is in *)
      state "C"
        [
          recv_any "x" "arrive" []
            ~cond:(not_ (v "s" +~ v "x" ==~ full_set))
            ~assigns:[ ("s", v "s" +~ v "x"); ("x", rid 0) ]
            ~goto:"C";
          recv_any "x" "arrive" []
            ~cond:(v "s" +~ v "x" ==~ full_set)
            ~assigns:[ ("s", v "s" +~ v "x"); ("x", rid 0) ]
            ~goto:"R";
        ];
      (* release everyone, in any order *)
      state "R"
        [
          send_to (v "j") "go" []
            ~choose:[ ("j", v "s") ]
            ~cond:(not_ (is_empty (v "s" -~ v "j")))
            ~assigns:[ ("s", v "s" -~ v "j") ]
            ~goto:"R";
          send_to (v "j") "go" []
            ~choose:[ ("j", v "s") ]
            ~cond:(is_empty (v "s" -~ v "j"))
            ~assigns:[ ("s", empty_set); ("j", rid 0) ]
            ~goto:"C";
        ];
    ]

let remote =
  process "remote" ~vars:[] ~init:"T"
    [
      state "T" [ tau "work" ~goto:"A" ];
      state "A" [ send_home "arrive" [] ~goto:"W" ];
      state "W" [ recv_home "go" [] ~goto:"P" ];
      state "P" [ tau "proceed" ~goto:"T" ];
    ]

let system = Dsl.system "barrier" ~home ~remote

let rv_invariants prog =
  let open Props in
  let home_releasing = rv_home_in prog [ "R" ]
  and arrived = rv_home_var prog "s" in
  [
    (* the release phase starts with everyone arrived and never runs dry *)
    ( "release_not_dry",
      fun st ->
        (not (home_releasing st)) || not (Value.set_is_empty (arrived st)) );
    (* a remote recorded as arrived is still waiting *)
    ( "recorded_means_waiting",
      fun st ->
        let s = arrived st in
        forall_remotes prog.Prog.n (fun i ->
            (not (Value.set_mem i s)) || rv_remote_ctl prog st i = "W") );
  ]

let async_invariants prog =
  let open Props in
  let home_releasing = as_home_in prog [ "R" ]
  and arrived = as_home_var prog "s" in
  [
    ( "release_not_dry",
      fun st ->
        (not (home_releasing st)) || not (Value.set_is_empty (arrived st)) );
    (* a remote observed waiting is either recorded as arrived or its
       release is already on the wire (the record is cleared only when
       the go's ack comes back) *)
    ( "waiting_means_recorded_or_released",
      fun st ->
        let s = arrived st in
        let go_in_flight i =
          List.exists
            (function
              | Wire.Req m -> m.Wire.m_name = "go"
              | Wire.Ack | Wire.Nack -> false)
            st.Async.to_r.(i)
          ||
          match st.Async.r.(i).r_buf with
          | Some m -> m.Wire.m_name = "go"
          | None -> false
        in
        forall_remotes prog.Prog.n (fun i ->
            as_remote_ctl prog st i <> "W"
            || Value.set_mem i s
            || go_in_flight i) );
  ]
