(** The §5.3 scheduling-overhead study: wall time of each scheduler on
    3-cluster workloads.  The paper reports ≈0.28 s for the on-line
    heuristics, 0.54 s for the off-line optimal and 19.76 s for Bender98
    on 15-minute workloads; the shape to reproduce is
    Bender98 ≫ Offline > on-line LP heuristics ≫ list heuristics. *)

type entry = {
  scheduler : string;
  wall : Stats.summary;
  solver_wall : Stats.summary;
  (** seconds inside the stretch-solver pipelines per run (span data) —
      separated from [wall] so the table no longer conflates simulation
      time with solver time *)
  solver : Gripps_core.Stretch_solver.stats;
  (** solver counters summed over this scheduler's runs — attributes the
      wall time to feasibility probes / flow work / rational arithmetic *)
}

val measure :
  ?seed:int ->
  ?instances:int ->
  ?horizon:float ->
  ?pool:Gripps_parallel.Pool.t ->
  unit ->
  entry list
(** Per-scheduler wall-time summaries and solver counters on 3-cluster
    configurations (portfolio order).  [pool] shards by instance; the
    solver counters are merged back deterministically, though wall-time
    summaries remain measurements (they vary run to run regardless). *)

type scaling_sample = {
  jobs : int;
  offline_s : float;
  online_s : float;
  bender98_s : float;
}

val scaling : ?seed:int -> unit -> scaling_sample list
(** Wall time of the three expensive schedulers as the workload grows
    (3-cluster platform, arrival windows of 15, 30, 60 and 120 s) — the
    quantitative version of the paper's remark that Bender98 becomes
    intractable with the job count (it performs one full hindsight solve
    per arrival). *)
