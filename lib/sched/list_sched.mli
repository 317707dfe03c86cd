(** Greedy divisible list scheduling with restricted availability.

    The paper's rule (§3.2): {e while some processors are idle, select the
    job with the highest priority and distribute its processing on all
    appropriate processors that are available}.  Rescheduling happens at
    every arrival and completion (free preemption).

    The five priority rules live here once, as one {!engine}: an indexed
    min-heap per databank keyed by the rule, and a plan walk that only
    ever reads heap roots.  The batch engine drives it with job ids
    through {!flat_scheduler}; the [Gripps_service] daemon drives it with
    slot ids on the same {!Gripps_engine.Kernel}.  The one other
    implementation of the rules is the recompute-from-scratch oracle
    {!Legacy_adapter.resort_scheduler} (over {!allocate}), which the
    differential tests hold the engine to bit for bit: same allocations,
    hence the same schedules, metrics and journals. *)

open Gripps_model
open Gripps_engine

val allocate :
  Sim.state -> priority_order:int list -> Sim.allocation
(** The one-shot allocation the rule produces for a given priority order
    over (a subset of) the active jobs: each job in turn grabs every
    still-idle {e up} machine hosting its databank, at full share (down
    machines are never allocated, so list scheduling degrades gracefully
    under failures).  Exposed for reuse by the on-line LP heuristics
    (Online-EGDF) and Bender's algorithms, which supply their own
    orders. *)

type flat_rule = Rule_fcfs | Rule_spt | Rule_srpt | Rule_swpt | Rule_swrpt
(** Keys (lower first, ties to the smaller id): FCFS the release date,
    SPT the size [W_j], SRPT the remaining work, SWPT [W_j²], SWRPT
    remaining work [× W_j] — the {!Priority} rules, evaluated on the
    kernel's columns. *)

val rule_name : flat_rule -> string
(** ["FCFS"], ["SPT"], ["SRPT"], ["SWPT"], ["SWRPT"]. *)

(** {1 The rule engine}

    Allocation-free in steady state: keys are staged through
    {!Gripps_collections.Heap.Indexed.put_key}, so no float crosses a
    call boundary, and plans are written into a reusable
    {!Kernel.Plan_buf.t}. *)

type engine

val engine :
  rule:flat_rule ->
  platform:Platform.t ->
  capacity:int ->
  release:float array ->
  db:int array ->
  engine
(** An engine over ids [0, capacity).  [release] and [db] are the
    driver's id-indexed release-date and databank columns, read (never
    written) by the engine: an id's cells must be set before {!add}. *)

val replicas : engine -> int -> int
(** Number of machines hosting the databank. *)

val add : engine -> Kernel.t -> int -> unit
(** Insert an id, keyed from [release]/[db] and the kernel's
    [size]/[remaining] columns. *)

val remove : engine -> int -> unit

val rekey : engine -> Kernel.t -> unit
(** Re-key the members of [Kernel.rated] — the previous plan's support,
    so call it before the new plan is loaded into the kernel.  No-op for
    the static rules FCFS, SPT and SWPT. *)

val plan : engine -> Kernel.t -> Kernel.Plan_buf.t -> unit
(** Clear the buffer (grab order) and write the rule's allocation over
    the kernel's up machines: the smallest (key, id) among the heap
    roots of the databanks that still have a free up host takes all of
    those hosts, until no databank qualifies. *)

(** {1 Batch schedulers} *)

val flat_scheduler : flat_rule -> Sim.flat_scheduler
(** The engine over job ids: arrivals are added, completions removed,
    the dirty support re-keyed, then the plan written. *)

val flat_fcfs : Sim.flat_scheduler
val flat_spt : Sim.flat_scheduler
val flat_srpt : Sim.flat_scheduler
val flat_swpt : Sim.flat_scheduler
val flat_swrpt : Sim.flat_scheduler
