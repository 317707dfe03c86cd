(** Event-driven simulator for divisible loads with free preemption.

    The divisible model without communication costs (paper §2.1) admits an
    exact fluid semantics: between two events every machine splits its
    time between jobs in fixed shares, and a job's processing rate is the
    sum of [share × speed] over machines.  The engine advances from event
    to event (arrival, completion, plan boundary, machine failure/repair),
    asking the scheduler for a fresh plan at each one, and records the
    realized {!Gripps_model.Schedule.t}.

    Schedulers are on-line: the callback only ever sees jobs released so
    far (enforced by construction — unreleased jobs have no remaining-work
    entry observable through {!active_jobs}) and the decisions it returns
    cannot be retracted for elapsed time.

    {b Faults.}  A {!Fault.trace} (explicit, or encoded as platform
    downtime intervals) makes machines fail and recover mid-run.  The
    scheduler is re-invoked with {!Failure}/{!Recovery} events exactly as
    it is on arrivals, allocations on down machines are rejected, and the
    {!Fault.loss} semantics decides whether in-flight work on a dying
    machine survives ([Pause]) or is re-added to the job's remaining work
    ([Crash]).

    {b Memory layout.}  Engine state is columnar — parallel [float array]
    / [int array] / [bool array] columns indexed by job or machine id —
    and the event loop is written so that steady-state event processing
    allocates nothing on the OCaml minor heap once the run's buffers have
    grown to their working size (list-based {!scheduler}s and journaling
    excepted).  {!flat_scheduler}s plug into this regime by writing their
    plans into a reusable {!Plan_buf.t} instead of consing allocation
    lists. *)

open Gripps_model

(** [(machine, [(job, share); ...])]: shares of each machine's time.
    Machines absent from the list are idle; shares must be positive and
    sum to at most 1 per machine. *)
type allocation = (int * (int * float) list) list

type event =
  | Arrival of int     (** job id just released *)
  | Completion of int  (** job id just finished *)
  | Boundary           (** the previous plan's horizon was reached *)
  | Failure of int     (** machine id just went down *)
  | Recovery of int    (** machine id just came back up *)

(** {1 Flat plan buffer}

    A plan as parallel columns instead of the nested [allocation] list:
    machine "runs" indexing into a flat [(job, share)] entry array.  The
    engine owns one buffer per simulation and clears/refills it at every
    replan, so steady-state replanning allocates nothing.

    {b Order contract.}  Accessors index runs in {e canonical} order —
    the order of the equivalent legacy [allocation] list.  Writers that
    emit runs in grab order (like the heap walk, whose legacy counterpart
    builds its list by {e prepending}) clear with [~grab_order:true]; the
    accessors then transparently reverse, reproducing the legacy list —
    float summation order included — bit for bit. *)
module Plan_buf : sig
  type t = Kernel.Plan_buf.t

  val create : unit -> t

  val clear : ?grab_order:bool -> t -> unit
  (** Empty the buffer and reset the horizon.  [grab_order] (default
      false) declares that runs will be pushed in reverse canonical
      order. *)

  val begin_machine : t -> int -> unit
  (** Start a new run for the given machine; subsequent {!push_share}
      calls append to it. *)

  val push_share : t -> job:int -> share:float -> unit
  (** @raise Invalid_argument before any {!begin_machine}. *)

  val push_unit_share : t -> job:int -> unit
  (** [push_share ~share:1.0] without a float in the signature, so the
      call allocates nothing (a [float] argument of a non-inlined call
      is boxed).  Full-share grabs are the common case — all of list
      scheduling. *)

  val set_horizon : t -> float -> unit
  (** Declare the plan valid only up to this date (the legacy
      [plan.horizon = Some h]). *)

  val horizon : t -> float
  (** The declared horizon, or [infinity] when none was set. *)

  val runs : t -> int
  val is_empty : t -> bool

  val run_machine : t -> int -> int
  (** Machine of the [i]-th run, canonical order. *)

  val run_length : t -> int -> int

  val entry_job : t -> int -> int -> int
  (** [entry_job b i k]: job of the [k]-th share of the [i]-th canonical
      run. *)

  val entry_share : t -> int -> int -> float

  val of_allocation : t -> allocation -> unit
  (** Clear and refill from a legacy list (canonical write order). *)

  val to_allocation : t -> allocation
  (** Materialize the canonical-order legacy list (allocates). *)
end

type state

val instance : state -> Instance.t
val now : state -> float

val remaining : state -> int -> float
(** Remaining Mflop of a released job.
    @raise Invalid_argument for a job not yet released. *)

val is_released : state -> int -> bool
val is_completed : state -> int -> bool

val machine_up : state -> int -> bool
(** Is the machine currently available?  Schedulers must not allocate work
    on a down machine.  @raise Invalid_argument on a bad machine id. *)

val lost_work : state -> int -> float
(** Mflop of the job's work destroyed so far by crash-semantics failures
    (always 0 under [Pause]). *)

val active_jobs : state -> int list
(** Released, not yet completed; increasing id (= release order). *)

val completion_time : state -> int -> float option

val kernel : state -> Kernel.t
(** The fluid kernel the run drives, indexed by job id — read-only by
    convention, for flat schedulers that key on its columns.  During a
    scheduler callback [Kernel.rated] is the support of the plan segment
    that just ended (empty at the initial invocation): a superset of the
    jobs whose remaining work changed since the previous callback, so a
    scheduler re-keys only those.  It is reloaded when the returned plan
    is validated. *)

(** Indexed, allocation-free view of the event batch a {!flat_scheduler}
    is being invoked for (the flat counterpart of the [event list]
    argument of legacy callbacks). *)
module Events : sig
  val count : state -> int

  val kind :
    state ->
    int ->
    [ `Arrival | `Completion | `Boundary | `Failure | `Recovery ]
  (** Immediate (unallocated) constant variants. *)

  val subject : state -> int -> int
  (** Job id for [`Arrival]/[`Completion], machine id for
      [`Failure]/[`Recovery], meaningless for [`Boundary]. *)
end

(** A plan: the allocation to apply from [now] on, valid until the next
    arrival/completion/failure/recovery or until [horizon] (if any),
    whichever comes first.  [horizon], when given, must be strictly later
    than [now]. *)
type plan = { allocation : allocation; horizon : float option }

val idle : plan

(** A scheduler: a name and a factory producing the per-run callback (the
    callback may close over mutable per-run state such as a precomputed
    plan queue).  The callback receives the batch of simultaneous events
    that just fired. *)
type scheduler = {
  name : string;
  make : Instance.t -> state -> event list -> plan;
}

val stateless : string -> (state -> event list -> plan) -> scheduler

(** A flat scheduler: the zero-allocation counterpart of {!scheduler}.
    The callback reads the pending events through {!Events}, updates its
    per-run state, and {e writes} the new plan into the provided
    {!Plan_buf.t} (pre-cleared with [grab_order = true], so runs are
    pushed in grab order) instead of returning an allocation list. *)
type flat_scheduler = {
  fname : string;
  fmake : Instance.t -> state -> Plan_buf.t -> unit;
}

val flat_stateless : string -> (state -> Plan_buf.t -> unit) -> flat_scheduler

val flat_incremental :
  name:string ->
  init:(Instance.t -> 's) ->
  on_event:('s -> state -> Plan_buf.t -> unit) ->
  flat_scheduler
(** A stateful flat scheduler: [init] builds the per-run state once (a
    fresh ['s] per simulation, so one scheduler value can be reused
    across runs and domains), and [on_event] folds each event batch into
    it and writes the plan. *)

val of_legacy : scheduler -> flat_scheduler
(** A legacy list scheduler as a {!flat_scheduler}: the callback's event
    batch is materialized as a list and its returned plan flattened into
    the engine's buffer in canonical (list) order, so the resulting run
    is bit-identical to the historical list path.  The flat contract is
    the engine's only execution path — {!run_report} is
    [run_report_flat] over this adapter. *)

(** {1 Non-clairvoyant schedulers}

    A non-clairvoyant scheduler (Robert–Schabanel) never observes job
    sizes: not [W_j], not remaining work, not the instance.  The
    restriction is enforced by the API, not by convention — {!Blind.view}
    is abstract, only {!nonclairvoyant}/{!nonclairvoyant_incremental}
    callbacks receive one, and the view exposes no size-bearing accessor
    ({!remaining}, {!Columns}, {!instance} and {!Instance.t} itself are
    all unreachable from it).  Per-job accessors further refuse jobs that
    have not arrived yet, so arrival dates cannot leak either. *)
module Blind : sig
  type view
  (** The engine state, stripped to what a size-blind scheduler may see. *)

  val platform : view -> Platform.t
  (** Machines, speeds and databank replication are public knowledge. *)

  val now : view -> float

  val active_jobs : view -> int list
  (** Released, not yet completed; increasing id (= release order). *)

  val is_completed : view -> int -> bool
  val machine_up : view -> int -> bool

  val databank : view -> int -> int
  (** @raise Invalid_argument for a job not yet released. *)

  val release : view -> int -> float
  (** @raise Invalid_argument for a job not yet released. *)

  val user : view -> int -> int
  (** @raise Invalid_argument for a job not yet released. *)
end

val nonclairvoyant : string -> (Blind.view -> event list -> plan) -> scheduler
(** A stateless size-blind scheduler.  Runs on the ordinary engine —
    only the callback's view is restricted. *)

val nonclairvoyant_incremental :
  name:string ->
  init:(Platform.t -> 's) ->
  on_event:('s -> Blind.view -> event list -> plan) ->
  scheduler
(** A stateful size-blind scheduler: [init] builds the per-run state once
    and [on_event] folds each event batch into it, as in
    {!flat_incremental} — but [init] sees only the platform (the
    instance would leak sizes and the job count) and [on_event] the
    blind view. *)

exception Stalled of { time : float; pending : int list }
(** Raised when the scheduler leaves pending work unallocated with no
    future event (arrival, plan boundary, or machine repair) to wake it
    up. *)

exception
  Horizon_exceeded of {
    scheduler : string;
    time : float;            (** simulation date when the guard fired *)
    guard : float;           (** the [?horizon] value *)
    pending : int list;      (** jobs still unfinished *)
    last_event : event option;  (** last event dispatched to the scheduler *)
    journal : Gripps_obs.Obs.Journal.event list;
        (** the partial event journal of the aborted run — empty unless
            the observability level is [Events] *)
  }
(** Raised when the simulation advances past the [?horizon] abort guard —
    the diagnostic payload identifies where and on whose watch the run was
    dragged out, and (at [Events] observability level) carries the partial
    journal so the drag-out can be traced post mortem. *)

(** The single result shape of a simulation: the realized schedule, its
    metrics, the fault diagnostics, and the observability summary.  All
    entry points return it ({!run} merely projects out the schedule). *)
type report = {
  schedule : Schedule.t;
  metrics : Metrics.t;  (** objectives of the realized schedule *)
  lost : float array;   (** per-job Mflop destroyed by crashes *)
  replans : int;        (** scheduler callback invocations *)
  events : int;         (** simulation events dispatched (incl. batches) *)
  journal : Gripps_obs.Obs.Journal.event list;
      (** typed per-run trace — empty unless the observability level is
          [Events] (see {!Gripps_obs.Obs.set_level}).  Captured as a
          delta of the calling domain's journal buffer, so concurrent
          simulations in separate domains (a {!Gripps_parallel} sweep)
          each get exactly their own slice; a parallel sweep's merged
          journal is the concatenation of these slices in shard order. *)
}

val run_report :
  ?horizon:float ->
  ?faults:Fault.trace ->
  ?loss:Fault.loss ->
  scheduler ->
  Instance.t ->
  report
(** Simulates to completion of all jobs.
    @param horizon abort guard: simulating past this date raises
    {!Horizon_exceeded} (default: no guard).
    @param faults availability edges injected during the run (default
    none), merged with the platform's static downtime intervals.
    @param loss what happens to in-flight work when a machine dies
    (default [Crash]).
    @raise Stalled see above.
    @raise Invalid_argument when the scheduler returns an invalid
    allocation (oversubscribed machine, down machine, job without its
    databank, unreleased or completed job, negative or zero share,
    duplicate entry for one job on one machine, stale horizon), or when
    the fault trace references an unknown machine. *)

val run_report_flat :
  ?horizon:float ->
  ?faults:Fault.trace ->
  ?loss:Fault.loss ->
  ?record:bool ->
  flat_scheduler ->
  Instance.t ->
  report
(** {!run_report} for a {!flat_scheduler} — same semantics, same
    exceptions, bit-identical metrics and completion dates for equivalent
    schedulers.
    @param record when [false] (default [true]), skip materializing the
    per-segment schedule: [report.schedule] has no segments and
    [report.metrics] is computed directly from the completion dates
    (bit-identical to the recorded path).  This removes the last
    per-event allocation, so a steady-state run at [Counters]
    observability allocates nothing per event — the benchmarking
    posture. *)

val run :
  ?horizon:float ->
  ?faults:Fault.trace ->
  ?loss:Fault.loss ->
  scheduler ->
  Instance.t ->
  Schedule.t
(** [run ... = (run_report ...).schedule]. *)


