open Ccr_core
open Ccr_semantics
open Ccr_refine

(* A flag per control state of [proc], set for the named ones.  Built
   once per protocol instance, so the per-state predicates below index an
   array instead of comparing names. *)
let ctl_mask (proc : Prog.proc) names =
  Array.map (fun (cs : Prog.cstate) -> List.mem cs.cs_name names) proc.p_states

let rv_remote_ctl (prog : Prog.t) (st : Rendezvous.state) i =
  prog.remote.p_states.(st.r.(i).ctl).cs_name

let rv_remotes_in (prog : Prog.t) names =
  let mask = ctl_mask prog.remote names in
  fun (st : Rendezvous.state) ->
    let c = ref 0 in
    for i = 0 to Array.length st.r - 1 do
      if mask.(st.r.(i).ctl) then incr c
    done;
    !c

let rv_home_in (prog : Prog.t) names =
  let mask = ctl_mask prog.home names in
  fun (st : Rendezvous.state) -> mask.(st.h.ctl)

let rv_home_var (prog : Prog.t) x =
  let i = Prog.var_index prog.home x in
  fun (st : Rendezvous.state) -> st.h.env.(i)

let as_remote_ctl (prog : Prog.t) (st : Async.state) i =
  prog.remote.p_states.(st.r.(i).r_ctl).cs_name

let as_remotes_in (prog : Prog.t) names =
  let mask = ctl_mask prog.remote names in
  fun (st : Async.state) ->
    let c = ref 0 in
    for i = 0 to Array.length st.r - 1 do
      if mask.(st.r.(i).r_ctl) then incr c
    done;
    !c

let as_home_in (prog : Prog.t) names =
  let mask = ctl_mask prog.home names in
  fun (st : Async.state) -> mask.(st.h.h_ctl)

let as_home_var (prog : Prog.t) x =
  let i = Prog.var_index prog.home x in
  fun (st : Async.state) -> st.h.h_env.(i)

let as_home_idle (st : Async.state) =
  match st.h.h_mode with Async.Hcomm -> true | Async.Htrans _ -> false

let as_home_awaits (st : Async.state) i =
  match st.h.h_mode with
  | Async.Hcomm -> false
  | Async.Htrans { peer; _ } -> peer = i

let forall_remotes n f =
  let rec loop i = i >= n || (f i && loop (i + 1)) in
  loop 0

let rec all_from i n p st = i >= n || (p st i && all_from (i + 1) n p st)
let all_remotes n p st = all_from 0 n p st
