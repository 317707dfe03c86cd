(** Large-n scale experiment: events/sec of the priority schedulers as
    the workload grows (n ∈ 10²…10⁶ by default, 10⁷ by request).

    Each (n, scheduler) cell is one shardable sweep job: it regenerates
    the pinned instance of ≈ n jobs (a pure function of [(seed, n)], so
    every scheduler at a given n sees the same instance in whichever
    domain the cell lands), times the flat zero-allocation scheduler in
    its benchmarking posture (no schedule recording) — the headline
    events/s — and reports minor-heap words allocated per event from the
    engine's [sim.minor_words] counter.  Up to [legacy_cap] it also runs
    the flat path with recording on and the legacy resort-from-scratch
    oracle on the same instance, recording a speedup and an identity bit
    (metrics, segment list and completion vector compared structurally
    across all three runs).  The report's
    [identical] conjunction is the differential gate CI enforces.

    Each cell also reports three deterministic bytes-per-job figures of
    its size: the instance's reachable heap, what an empty rule engine at
    capacity n adds to it, and the minor-heap words that drawing and
    building the instance allocate. *)

type legacy_run = {
  l_wall_s : float;
  l_events_per_s : float;
  l_speedup : float;    (** legacy wall / flat wall *)
  l_identical : bool;   (** flat (both modes) = resort *)
}

type entry = {
  n_target : int;
  scheduler : string;
  jobs : int;           (** realized job count (Poisson draw around n) *)
  events : int;
  replans : int;
  wall_s : float;
  events_per_s : float;
  mw_per_event : float; (** minor-heap words allocated per event during
                            the headline run (0 in steady state; the
                            residue is run setup amortized over the
                            events) *)
  instance_bytes_per_job : float;
      (** [Obj.reachable_words] of the instance, platform included *)
  engine_bytes_per_job : float;
      (** what an empty rule engine at capacity n keeps reachable
          beyond the instance columns it reads *)
  setup_minor_words_per_job : float;
      (** minor-heap words allocated by {!instance_for} *)
  legacy : legacy_run option;  (** [None] above [legacy_cap] *)
}

type report = {
  seed : int;
  domains : int;
  sizes : int list;
  legacy_cap : int;
  repeats : int;        (** timed headline runs per cell (min-of-N wall) *)
  entries : entry list;
  identical : bool;     (** conjunction over every legacy comparison *)
}

val panel_names : string list
(** The five priority rules: FCFS, SPT, SRPT, SWPT, SWRPT. *)

val default_sizes : int list
(** [[100; 1_000; 10_000; 100_000; 1_000_000]]. *)

val default_legacy_cap : int
(** [10_000] — the largest n the O(n log n)-per-event oracle is run at. *)

val instance_for : seed:int -> int -> Gripps_model.Instance.t
(** [instance_for ~seed n]: the pinned instance of about [n] jobs every
    scheduler at size [n] runs — a pure function of [(seed, n)].
    @raise Invalid_argument if [n <= 0]. *)

val run :
  ?sizes:int list ->
  ?legacy_cap:int ->
  ?schedulers:string list ->
  ?repeats:int ->
  ?pool:Gripps_parallel.Pool.t ->
  ?progress:(int -> int -> unit) ->
  seed:int ->
  unit ->
  report
(** [schedulers] filters {!panel_names};
    [pool] shards cells across domains (default sequential) — entries
    come back in (size-major, panel-minor) order either way.
    [repeats] (default 1, clamped to at least 1) times the headline run
    that many times and keeps the {e minimum} wall clock — the standard
    answer to run-to-run scheduling noise on a contended box; events,
    minor-words and the legacy comparison come from the first run (they
    are deterministic, so repetition adds nothing).
    @raise Invalid_argument on a name outside {!panel_names} or a size
    [<= 0], before any cell runs. *)

val failing_cells : report -> (int * string) list
(** The (n, scheduler) cells whose legacy comparison was not identical
    (empty iff [report.identical]). *)

val render : report -> string
val to_json : report -> string
val write_json : path:string -> report -> unit
