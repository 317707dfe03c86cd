(** Running the heuristic portfolio over random instances (paper §5.3).

    The portfolio is the eleven heuristics of Table 1, now defined once
    in {!Sched_registry} (the default panel is
    {!Sched_registry.paper_panel}).  [Bender98] is only run on platforms
    of at most 3 clusters and on workloads of at most 60 jobs, the gate
    of DESIGN §5b, mirroring the paper, whose larger simulations were
    "practically infeasible, due to the algorithm's prohibitive overhead
    costs" (it solves a full hindsight optimum at every arrival).

    Beyond the classic max-/sum-stretch pair, a run can evaluate any
    list of {!Gripps_model.Metrics.objective}s ([?objectives]); the extra
    values ride on each measurement and feed the ℓ_p and clairvoyance
    tables. *)

open Gripps_model
open Gripps_engine

type measurement = {
  scheduler : string;
  max_stretch : float;
  sum_stretch : float;
  objectives : (Metrics.objective * float) list;
  (** the values of the extra requested objectives, in request order
      (empty unless [?objectives] was passed) *)
  wall_time : float;
  (** seconds of wall time for the whole simulated run (scheduling
      overhead + engine bookkeeping) *)
  solver_time : float;
  (** seconds spent inside the stretch-solver pipelines during the run,
      from the observability span data — the §5.3 overhead table reports
      this separately so simulation time is no longer double-counted as
      solver cost *)
  solver : Gripps_core.Stretch_solver.stats;
  (** solver-internal counters accumulated during this run (feasibility
      probes, flow-network builds and warm updates, augmenting paths,
      rational fast-path hits/falls) *)
}

type instance_result = {
  config : Gripps_workload.Config.t;
  num_jobs : int;
  measurements : measurement list;
}

val run_instance :
  ?schedulers:Sim.flat_scheduler list ->
  ?objectives:Metrics.objective list ->
  ?faults:Fault.trace ->
  ?loss:Fault.loss ->
  ?guard:float ->
  Gripps_workload.Config.t ->
  Instance.t ->
  instance_result
(** [faults] (default none) and [loss] (default {!Fault.Crash}) inject the
    same machine-failure trace into every scheduler's run, so the
    portfolio is compared under identical outages.  Runs are measured at
    observability level [Spans] at least (promoted temporarily when the
    ambient level is [Counters]) so that [solver_time] is populated.
    [guard] (default [1e9]) is the simulation abort guard: a run dragged
    past it cannot deliver complete metrics, so the engine's
    {!Sim.Horizon_exceeded} is converted to the typed
    {!Gripps_model.Metrics.Incomplete} (naming the first pending job) —
    the same data-error every metrics consumer already maps to exit 3. *)

val value : measurement -> Metrics.objective -> float option
(** The measured value of an objective: the classic fields answer
    [Max_stretch]/[Sum_stretch] directly, anything else must have been
    requested via [?objectives]. *)

type ratio = { scheduler : string; max_ratio : float; sum_ratio : float }

val ratios : instance_result -> ratio list
(** Per-instance ratios to the best observed value of each metric across
    the portfolio — the normalization used by every aggregate table. *)

val ratios_for : Metrics.objective -> instance_result -> (string * float) list
(** {!ratios} generalized to one objective: [(scheduler, value / best)]
    for every measurement carrying that objective (degenerate zero-spread
    instances normalize to 1, as in {!ratios}). *)

val instance_job :
  ?schedulers:Sim.flat_scheduler list ->
  ?objectives:Metrics.objective list ->
  ?guard:float ->
  seed:int ->
  Gripps_workload.Config.t ->
  int ->
  instance_result
(** [instance_job ~seed config k] realizes and measures the [k]-th random
    instance of [config].  All randomness (workload and fault trace) is a
    pure function of [(seed, k)], so the job can run in any domain, in
    any order, and return the same result — this is the unit every sweep
    shards on. *)

val config_sweep :
  ?schedulers:Sim.flat_scheduler list ->
  ?objectives:Metrics.objective list ->
  ?guard:float ->
  seed:int ->
  instances:int ->
  Gripps_workload.Config.t ->
  instance_result Gripps_parallel.Sweep.t
(** The [instances] jobs of a configuration as a shardable sweep. *)

val run_config :
  ?schedulers:Sim.flat_scheduler list ->
  ?objectives:Metrics.objective list ->
  ?guard:float ->
  ?pool:Gripps_parallel.Pool.t ->
  seed:int ->
  instances:int ->
  Gripps_workload.Config.t ->
  instance_result list
(** Realize [instances] random instances of the configuration (seeded
    deterministically) and measure the portfolio on each.  When the
    configuration carries a {!Gripps_workload.Config.fault_axis}, each
    instance also gets a deterministic fault trace drawn from the same
    stream.  [pool] (default sequential) shards instances across domains;
    results are identical at any pool size. *)
