(** The paper's on-line max-stretch heuristics (§4.3.2).

    Every time a job arrives:

    + preempt everything;
    + compute the best achievable max-stretch [S*] given the work already
      performed (exact rational solve of System (1), with the stretches of
      already-completed jobs as a floor);
    + solve System (2) — minimize the relaxed sum-stretch surrogate under
      the [S*]-deadlines (min-cost flow);
    + realize the assignment with one of three policies:
      {ul
      {- [Online]: per machine and interval, terminal jobs first under
         SWRPT;}
      {- [Online-EDF]: per machine, chunks ordered by the interval in
         which each job's total work completes;}
      {- [Online-EGDF]: a single global priority list (by completion
         interval) executed with the greedy distribution rule of §3.2.}}

    [online_non_optimized] stops after step 2 and realizes the raw
    feasibility witness instead of the System (2) optimum — the baseline
    of the Figure 3 comparison.

    {b Fault tolerance.}  All heuristics replan on machine failures and
    recoveries as well as on arrivals.  When every machine is down they
    idle until the next recovery; when the solver blows its iteration/time
    budget they degrade to greedy SWRPT list scheduling for the rest of
    the inter-event period (service degrades, the run completes). *)

open Gripps_engine

val needs_replan : Sim.state -> bool
(** Does the pending event batch change the pending-work problem — an
    arrival, a machine failure or a recovery?  Completions and plan
    boundaries never do.  Shared with {!Bender.bender98}. *)

val online : Sim.flat_scheduler
val online_edf : Sim.flat_scheduler
val online_egdf : Sim.flat_scheduler
val online_non_optimized : Sim.flat_scheduler

val online_budgeted : Stretch_solver.budget -> Sim.flat_scheduler
(** [Online] with an explicit solver budget instead of
    {!Stretch_solver.default_budget}; exercises the degradation path
    (with [max_iters = 0] it behaves exactly like SWRPT). *)
