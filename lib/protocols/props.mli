(** Helpers for writing protocol invariants at both semantic levels.

    Invariants are plain predicates over global states.  The same logical
    property is usually checked on the rendezvous system and on the
    refined asynchronous system; these helpers give both phrasings access
    to control states (by name) and variables.

    The [*_in] and [*_var] accessors are staged: applied to a program and
    names they resolve the names once (a flag per control state, a
    variable index), and the resulting predicate only indexes arrays.
    Apply them once per protocol instance, outside the per-state
    closure. *)

open Ccr_core
open Ccr_semantics
open Ccr_refine

(** {2 Rendezvous-level accessors} *)

val rv_remotes_in : Prog.t -> string list -> Rendezvous.state -> int
(** How many remotes' control state has one of the given names. *)

val rv_home_in : Prog.t -> string list -> Rendezvous.state -> bool
val rv_home_var : Prog.t -> string -> Rendezvous.state -> Value.t
val rv_remote_ctl : Prog.t -> Rendezvous.state -> int -> string

(** {2 Asynchronous-level accessors}

    A transient process' control state is its underlying communication
    state (the refinement does not change it until the rendezvous
    completes), so the same state names apply. *)

val as_remotes_in : Prog.t -> string list -> Async.state -> int
val as_home_in : Prog.t -> string list -> Async.state -> bool
val as_home_var : Prog.t -> string -> Async.state -> Value.t
val as_remote_ctl : Prog.t -> Async.state -> int -> string

val as_home_idle : Async.state -> bool
(** True when the home is not mid-rendezvous (mode [Hcomm]).  Useful for
    invariants that only make sense between transactions. *)

val as_home_awaits : Async.state -> int -> bool
(** [as_home_awaits st i]: the home is transient, awaiting remote [i]. *)

(** {2 Combinators} *)

val forall_remotes : int -> (int -> bool) -> bool

val all_remotes : int -> ('s -> int -> bool) -> 's -> bool
(** [all_remotes n p st] = [forall_remotes n (p st)].  With [p] built
    once per protocol instance, a per-state invariant allocates no
    closure. *)
