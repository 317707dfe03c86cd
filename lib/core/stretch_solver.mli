(** Exact optimal max-stretch for divisible loads with restricted
    availability (paper §4.3.1).

    Bounding the max (weighted) stretch by [F] is equivalent to giving
    every pending job the deadline [d̄_j(F) = r_j + F·W_j] and asking for a
    feasible preemptive divisible schedule.  Between two {e milestones} —
    values of [F] where the relative order of release dates and deadlines
    changes — the interval structure is fixed and feasibility is System
    (1) of the paper.  System (1) only couples the [α] variables through
    per-(machine × interval) capacities and per-job demands, so it is a
    transportation problem; we decide it by max-flow instead of a generic
    LP (the LP route is kept in tests as a cross-check).

    The optimum is found exactly, in rational arithmetic, by a binary
    search over milestones followed by Newton/Dinkelbach iterations on the
    parametric min-cut inside the final milestone interval.  This removes
    the floating-point anomaly the paper reports in §5.3 (their off-line
    "optimal" was occasionally beaten because the milestone search missed
    intervals separated by tiny [F] variations). *)

module Q = Gripps_numeric.Rat

type job_spec = {
  jid : int;          (** caller's identifier, echoed back *)
  release : Q.t;      (** original release date [r_j] *)
  size : Q.t;         (** original size [W_j] — the stretch weight is [1/W_j] *)
  remaining : Q.t;    (** work still to process (0 allowed; such jobs are dropped) *)
  machines : int list;(** machines able to process the job *)
}
(** The solver only ever uses [size] as the deadline slope
    [d̄_j(F) = release + F × size], i.e. as the inverse weight [1/w_j] of
    the max {e weighted flow} objective (§4.3.1 treats that general case).
    To optimize arbitrary weights rather than stretch, set
    [size = 1/w_j] while keeping [remaining] in work units. *)

type machine_spec = { mid : int; speed : Q.t }

type problem = {
  now : Q.t;          (** date from which the remaining work may be scheduled *)
  jobs : job_spec list;
  machines : machine_spec list;
}

(** A concrete interval of the optimal solution, with the work assignment
    found by the flow computation. *)
type interval = { lo : Q.t; hi : Q.t }

type assignment = {
  s_star : Q.t;  (** the optimal max-stretch objective *)
  intervals : interval array;  (** chronological, covering [now, last deadline] *)
  work : (int * int * int * Q.t) list;
      (** [(jid, interval index, machine id, work)] with positive work *)
}

(** {1 Guardrail budgets}

    Both pipelines iterate (milestone feasibility probes, Newton steps,
    bisection).  A budget caps the iteration count and the wall time so a
    pathological instance degrades service instead of hanging the run:
    callers catch {!Budget_exhausted} and fall back to a cheaper pipeline
    (exact → float → greedy list scheduling). *)

type budget = {
  max_iters : int;      (** max feasibility probes / Newton steps *)
  max_seconds : float;  (** wall-clock cap; [infinity] disables it *)
}

val default_budget : budget
(** [{ max_iters = 100_000; max_seconds = infinity }] — generous enough
    that well-posed instances never hit it. *)

exception Budget_exhausted of { stage : string; iters : int; elapsed : float }
(** Raised by the solving entry points when their [?budget] is blown.
    [stage] is ["exact"] or ["float"]. *)

val optimal_max_stretch : ?budget:budget -> ?floor:Q.t -> problem -> Q.t
(** Smallest [F >= floor] (default floor 0) such that every pending job
    can meet [d̄_j(F)].  @raise Invalid_argument on malformed problems
    (negative remaining work, job with no machine, non-positive size or
    speed, release after [now] is allowed — the job is simply not
    schedulable before its release).
    @raise Budget_exhausted when the budget is blown. *)

val solve : ?budget:budget -> ?floor:Q.t -> ?refine:bool -> problem -> assignment
(** Like {!optimal_max_stretch} but also returns a witness schedule
    skeleton.  With [refine = true] (default [false]) the witness is the
    System (2) optimum: among all schedules achieving [s_star], it
    minimizes the paper's relaxed sum-stretch surrogate
    Σ_j Σ_t (fraction of j in t) × midpoint(t) — computed by min-cost
    max-flow. *)

val feasible : problem -> stretch:Q.t -> bool
(** Decide System (1) directly for a given objective value. *)

(** {1 Floating-point pipeline}

    The paper's own implementation solved the on-line Systems (1)/(2) with
    a floating-point LP solver; exactness only matters for the clairvoyant
    off-line optimum (where the paper reports a precision anomaly, fixed
    by the rational path above).  The [_float] variants run the same
    algorithms in doubles — milestones, bracketing by bisection, flow
    solvers — and are about 2–5× faster on the tracked corpus
    ([bench/BENCH_stretch.json]: 0.28 ms against 1.41 ms at 6 jobs,
    18.3 ms against 32.9 ms at 52 jobs, 12.2 ms against 26.8 ms at 76
    jobs); the on-line schedulers use them. *)

val optimal_max_stretch_float : ?budget:budget -> ?floor:float -> problem -> float
(** Approximate optimum (feasible side of a 1e-12-wide bisection
    bracket). *)

val solve_float : ?budget:budget -> ?floor:float -> ?refine:bool -> problem -> assignment
(** Like {!solve} but computed in doubles; the returned rationals are
    exact images of the float computation.  Tiny (≤1e-9 relative)
    shortfalls of work may remain in the witness; the simulator's plan
    player mops them up. *)

(** {1 Instrumentation}

    Counters over every solver run (both pipelines) since the last
    {!reset_stats}.  They are {!Gripps_obs.Obs.Counter}s, named
    ["solver.*"] and, for the rational pair, ["rat.fast_hits"] and
    ["rat.fast_falls"] ({!Gripps_numeric.Rat.fast_hits}), so they are
    domain-local and a parallel sweep merges them with the rest.  The
    perf harness ([gripps_cli perf]) and the §5.3 overhead study read
    them to attribute wall time to feasibility probes vs. flow-network
    work. *)

type stats = {
  exact_probes : int;      (** exact feasibility probes (Newton evaluations) *)
  float_probes : int;      (** float-pipeline feasibility probes *)
  graph_builds : int;      (** cold flow-network constructions *)
  warm_updates : int;      (** warm capacity re-installations *)
  augmenting_paths : int;  (** augmenting paths pushed by the exact networks *)
  rat_fast_hits : int;     (** {!Q} ops served by the native fast path *)
  rat_fast_falls : int;    (** {!Q} ops that fell back to Bigint *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

val warm_enabled : bool ref
(** Debug/bench knob, default [true].  When [false], every exact probe
    rebuilds its flow network from scratch (the pre-warm-start pipeline);
    the perf harness flips it to verify that warm and cold paths return
    identical results. *)
