(** Crash-safe streaming scheduler daemon.

    The batch engine ({!Gripps_engine.Sim}) holds every job of an
    instance in dense arrays and drains them to completion.  This module
    is its long-running sibling: jobs arrive from a {!Gripps_workload.Source}
    stream of unknown length, live in a bounded pool of {e slots}, and
    leave the daemon's memory the moment they complete — resident state
    is O(live jobs + pending queue), never O(jobs seen).

    {b Admission.}  At most [max_live] jobs are scheduled at once; up to
    [queue_cap] more wait in a FIFO pending queue.  When both are full
    the {!policy} decides: [Drop] discards the newcomer, [Block] stops
    consuming the source until capacity frees (an open-loop source keeps
    its release dates, so blocked jobs pay the wait in flow time), and
    [Shed] evicts the largest pending job to make room.

    {b Scheduling.}  Neither the rules nor the fluid advance are
    mirrors of the batch engine — they {e are} the batch engine.  Plans
    come from {!Gripps_sched.List_sched}'s rule engine, driven with slot
    ids (the {!rule} picks its {!Gripps_sched.List_sched.flat_rule}),
    and the daemon advances the shared {!Gripps_engine.Kernel}, so on a
    common prefix of the same stream the daemon's clock, remaining-work
    columns, completion times and journal segments are bit-identical to
    {!Gripps_engine.Sim}'s.  (A stream cannot know the
    instance's total work, so the kernel's sliver yardstick stays at
    zero and the threshold degenerates to [1e-9 × job size] — the same
    arithmetic, one operand pinned.)

    {b Crash safety.}  With [checkpoint] set, the daemon atomically
    (temp + fsync + rename, FNV-64 sealed) persists its complete state
    every [checkpoint_every] events: clock, live slots, free-slot stack,
    pending queue, current plan, metric accumulators, remaining fault
    edges, source cursor, and journal-segment offsets.  With
    [journal_dir] set, the daemon journals every arrival, replan,
    segment, completion, fault edge and admission note: each record is
    encoded as a JSONL line the moment it is made (and handed to the
    {!Gripps_obs.Obs.Journal.set_sink} sink), and the encoded bytes are
    appended to on-disk segments at each checkpoint, so journal memory
    is one window of bytes, not a window of records.  Restoring from the checkpoint (and truncating the journal segments
    to the recorded offsets) yields a daemon whose every subsequent
    event, journal record and metric is {e bit-identical} to the
    uninterrupted run — the property the kill-and-resume tests enforce.
    Everything the daemon does is a deterministic function of its
    checkpointed state; the only wall-clock observables (replan latency
    percentiles, watchdog deadline misses) are excluded from checkpoints
    and identity guarantees. *)

type rule = Fcfs | Spt | Srpt | Swpt | Swrpt
(** The daemon's configuration and CLI spelling of
    {!Gripps_sched.List_sched.flat_rule}. *)

val rule_name : rule -> string
val rule_of_string : string -> rule option
(** Case-insensitive; [None] for unknown names. *)

type policy = Drop | Block | Shed

val policy_name : policy -> string
val policy_of_string : string -> policy option

type config = {
  platform : Gripps_model.Platform.t;
  rule : rule;
  policy : policy;
  max_live : int;       (** slot-pool capacity (≥ 1) *)
  queue_cap : int;      (** pending-queue capacity (≥ 0) *)
  faults : Gripps_engine.Fault.trace;
  loss : Gripps_engine.Fault.loss;
  horizon : float option;
      (** stop (outcome {!Horizon_reached}) before advancing past this
          date; a resumed daemon given a larger horizon continues *)
  checkpoint : string option;   (** checkpoint file path *)
  checkpoint_every : int;       (** events between checkpoints (≥ 1) *)
  journal_dir : string option;  (** segment directory; journaling is on
                                    exactly when it is set *)
  seg_limit : int;              (** max records per journal segment *)
  source_desc : string;         (** fingerprinted source description *)
  replan_deadline : float option;
      (** watchdog: replans slower than this (wall-clock seconds) count
          as deadline misses — observability only, never control flow *)
}

val config :
  platform:Gripps_model.Platform.t ->
  ?rule:rule ->
  ?policy:policy ->
  ?max_live:int ->
  ?queue_cap:int ->
  ?faults:Gripps_engine.Fault.trace ->
  ?loss:Gripps_engine.Fault.loss ->
  ?horizon:float ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?journal_dir:string ->
  ?seg_limit:int ->
  ?source_desc:string ->
  ?replan_deadline:float ->
  unit ->
  config
(** Defaults: SWRPT, Drop, [max_live] 4096, [queue_cap] 1024, no
    faults, Crash loss, no horizon, no checkpointing, [checkpoint_every]
    4096, [seg_limit] 65536.
    @raise Invalid_argument on non-positive [max_live],
    [checkpoint_every] or [seg_limit], a negative [queue_cap], or a
    fault edge naming an unknown machine. *)

val fingerprint : config -> string
(** FNV-64 digest of everything that must match between the run that
    wrote a checkpoint and the run restoring it: platform, rule, policy,
    capacities, loss semantics, fault trace, segment limit and source
    description.  The horizon and checkpoint cadence are excluded — a
    resumed daemon may extend the horizon or change the cadence. *)

type outcome =
  | Drained          (** source exhausted and every admitted job done *)
  | Horizon_reached  (** next event lies past [config.horizon] *)
  | Killed           (** simulated kill: [stop_after_events] reached *)

type metrics = {
  completed : int;
  sum_stretch : float;
  max_stretch : float;
  sum_flow : float;
  max_flow : float;
  makespan : float;
}

type report = {
  outcome : outcome;
  metrics : metrics;
  admitted : int;       (** jobs that entered the slot pool *)
  enqueued : int;       (** jobs that waited in the pending queue *)
  dropped : int;
  shed : int;
  peak_live : int;
  peak_queue : int;
  events : int;
  replans : int;
  checkpoints : int;
  deadline_misses : int;
  lost_work : float;    (** work destroyed by crash-loss faults *)
  final_time : float;
  source_cursor : int;  (** items consumed from the source *)
  replan_p99_s : float;
      (** p99 replan latency (wall clock) since this process started or
          resumed; sampled only when [replan_deadline] is set (timing
          every replan would allocate on the steady-state path), 0
          otherwise or when no replan ran.  Not checkpointed. *)
}

exception Stalled of { time : float; live : int; queued : int }
(** No completion, arrival or fault can ever fire again, yet jobs remain
    (e.g. a databank whose every replica is down forever). *)

val run : ?stop_after_events:int -> config -> Gripps_workload.Source.t -> report
(** Fresh daemon over the source.  [stop_after_events] simulates a
    SIGKILL: once the cumulative event count reaches it, the daemon
    returns {!Killed} {e without} flushing or checkpointing — exactly
    the state a real kill leaves on disk.  On {!Drained} and
    {!Horizon_reached} the journal is flushed and a final checkpoint is
    written.  A fresh run clears any stale journal segments in
    [journal_dir] (created if missing).
    @raise Failure on a malformed source stream or a job whose databank
    is unknown or has no replica, whether it would be admitted, queued
    or dropped; @raise Stalled as documented. *)

val resume :
  ?stop_after_events:int ->
  config ->
  (cursor:int -> clock:float -> Gripps_workload.Source.t) ->
  report
(** Restore from [config.checkpoint] and continue.  The callback
    re-opens the source at the checkpointed position ([cursor] items
    consumed, [clock] the release of the last one) — e.g.
    [Source.of_file ~skip:cursor path] or [Source.poisson ~cursor
    ~clock ...].  Journal segments are truncated to the checkpointed
    offsets first, discarding any records the killed run appended past
    its last checkpoint.
    @raise Invalid_argument when [config.checkpoint] is [None];
    @raise Failure on a missing, torn, corrupt or mismatched
    (fingerprint) checkpoint, a field outside its domain included, and
    when the callback refuses the checkpointed position. *)

val segment_files : dir:string -> string list
(** The journal segment files under [dir], in order. *)

val read_journal : dir:string -> Gripps_obs.Obs.Journal.event list
(** Strict concatenated read of every segment ({!segment_files}).
    @raise Failure on a malformed or torn segment. *)
