(* The answers every timed run is checked against, written by hand.

   All workloads run the invalidate protocol with n = 4 remotes and a home
   buffer of k = 2 at the refined asynchronous level.  The figures are the
   ones `ccr check` / `ccr eq1` print for that instance; a run whose answer
   differs in any field is a failed run. *)

type check = {
  states : int;
  transitions : int;
  outcome_line : string;  (** the text after "outcome: " *)
  canon_fallbacks : int;
}

(* Symmetry quotient (--symmetry auto), identical at -j 1 and -j 2. *)
let check_sym =
  {
    states = 77_965;
    transitions = 304_853;
    outcome_line = "complete, invariants hold";
    canon_fallbacks = 0;
  }

(* The full space (--symmetry off). *)
let check_nosym =
  {
    states = 436_618;
    transitions = 1_698_877;
    outcome_line = "complete, invariants hold";
    canon_fallbacks = 0;
  }

type eq1 = {
  e_states : int;
  e_transitions : int;
  stutters : int;
  steps : int;
  abs_states : int;
}

(* Eq. 1 over the full space: ok and not truncated under the CLI's
   1,000,000-state cap (the library default of 200,000 truncates n = 4). *)
let eq1 =
  {
    e_states = 436_618;
    e_transitions = 1_698_877;
    stutters = 1_174_590;
    steps = 524_287;
    abs_states = 3_932;
  }

(* Loop engine: every remote runs [budget] protocol cycles.  An
   invalidate cycle is a request and its grant, then either the remote's
   release (three rendezvous) or the home's invalidation and the remote's
   ID (four), so a quiescent run completes between [3 * budget] and
   [4 * budget] rendezvous per remote; where in that range depends on the
   seed's schedule. *)
let loop_rendezvous_per_remote ~budget = (3 * budget, 4 * budget)
