(** Multi-cluster federation: sharded platforms behind a routing
    front-end.

    A federated run composes the two halves of this library:

    + {!Shard.partition} splits the fleet into [K] disjoint
      sub-platforms, each with its own scheduler instance;
    + {!Frontend.dispatch} routes every job at release time (and
      optionally rebalances unstarted work at arrival boundaries);
    + each shard then simulates {e its own} scheduling problem through
      the unmodified {!Gripps_engine.Sim} engine — concurrently, one
      shard per domain-pool slot.

    {b Determinism.}  Routing is a pure function of the instance
    (see {!Frontend}), each shard's simulation is a pure function of its
    sub-instance, and shard results, journals and observability deltas
    are merged in shard-index order by {!Gripps_parallel.Pool} — so a
    federated report is byte-identical at any [--jobs] level, and a
    1-shard federation is byte-identical (metrics, completion vector,
    journal) to the plain single-aggregate run of the same scheduler.

    {b Metrics.}  Global objectives are evaluated on the merged
    completion vector against the {e original} instance — original
    release dates, original job ids — through the one
    {!Gripps_model.Metrics.eval} layer, so stretches account for any
    delay the front-end introduced (a migrated job's waiting time counts
    against the federation, not for it). *)

open Gripps_model
open Gripps_engine

type report = {
  shards : Shard.t array;
  policy : Frontend.policy;
  migrate : bool;
  scheduler : string;
  outcome : Frontend.outcome;    (** routing decisions, global ids *)
  shard_jobs : int array;        (** jobs finally assigned per shard *)
  shard_reports : Sim.report array;
      (** per-shard engine reports (shard-local job/machine ids) *)
  completion : float array;      (** merged completion dates, global ids *)
  metrics : Metrics.t;           (** of the merged completion vector *)
  lost : float array;            (** merged crash-lost Mflop, global ids *)
  replans : int;                 (** total scheduler invocations *)
  events : int;                  (** total simulation events *)
}

val run :
  ?pool:Gripps_parallel.Pool.t ->
  ?faults:Fault.trace ->
  ?loss:Fault.loss ->
  ?horizon:float ->
  ?migrate:bool ->
  ?policy:Frontend.policy ->
  shards:int ->
  scheduler:Sim.flat_scheduler ->
  Instance.t ->
  report
(** Federate the instance across [shards] sub-platforms.  [policy]
    defaults to {!Frontend.Srpt} (the Fox–Moseley baseline), [migrate]
    to [false], [pool] to sequential (shards then run inline, still in
    shard order).  [faults] is a {e global} fault trace; each shard
    consumes its projection ({!Shard.project_faults}).  [horizon] is the
    per-shard simulation abort guard, as in {!Sim.run_report_flat}.
    @raise Invalid_argument unless [1 <= shards <= num_machines].
    @raise Gripps_model.Metrics.Incomplete when some job never completed
    (only possible if a shard simulation was aborted). *)

val stretch_ratios : baseline:Metrics.t -> report -> float * float
(** [(max-stretch ratio, sum-stretch ratio)] of the federated run vs a
    single-aggregate baseline on the same instance — the federation gap.
    Zero-spread degenerate baselines normalize to 1. *)
