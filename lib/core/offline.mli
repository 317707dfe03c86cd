(** The clairvoyant optimal max-stretch algorithm (paper §4.3.1).

    Knows the whole instance in advance; computes the exact optimal
    max-stretch [S*] (milestone binary search + parametric flow) and
    realizes one feasible schedule for it.  Matching the paper's [Offline]
    row, the realization is the raw System (1) witness — {e not} the
    System (2) refinement — which is why its sum-stretch is mediocre in
    Table 1 while its max-stretch is optimal. *)

open Gripps_model
open Gripps_engine
module Q = Gripps_numeric.Rat

val optimal_max_stretch : ?budget:Stretch_solver.budget -> Instance.t -> Q.t
(** The exact optimum [S*] for the whole instance.
    @raise Stretch_solver.Budget_exhausted when the optional guardrail is
    blown (default: {!Stretch_solver.default_budget}, which well-posed
    instances never hit). *)

val scheduler : Sim.flat_scheduler
(** Simulator realization of the optimal schedule. *)

val scheduler_refined : Sim.flat_scheduler
(** Variant realizing the System (2) refinement instead (an upper bound on
    what the on-line heuristics can hope for on the sum-stretch side). *)

val scheduler_budgeted : Stretch_solver.budget -> Sim.flat_scheduler
(** [Offline] with a solver guardrail: the exact pipeline falls back to
    the float pipeline when the budget is blown, and the float pipeline
    falls back to greedy SWRPT list scheduling — the run always completes,
    only the quality degrades. *)
