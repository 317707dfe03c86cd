(** Tracked solver benchmark ([gripps_cli perf]).

    Times the exact offline max-stretch solver, its float counterpart and
    the on-line heuristic on a pinned seeded corpus, compares against the
    pre-optimization baseline (constants in this module's implementation,
    [baseline] and [baseline_online_ms]; every BENCH_stretch.json entry
    carries them as its ["baseline"] object), and cross-checks that the
    warm-started pipeline returns the exact same rational optimum as a
    cold from-scratch solve. *)

type instance_report = {
  name : string;
  jobs : int;                         (** pending jobs in the instance *)
  s_star : string;                    (** exact optimum, as [Rat.to_string] *)
  exact_ms : float;                   (** median wall time, exact solver *)
  float_ms : float;                   (** median wall time, float solver *)
  solver : Gripps_core.Stretch_solver.stats;
      (** counters for one instrumented exact solve *)
  fast_hit_rate : float;              (** native-rational fast-path hit rate *)
  speedup : float;                    (** baseline exact_ms / current exact_ms *)
  cold_warm_match : bool;             (** warm pipeline = cold pipeline, exactly *)
  baseline_match : bool;              (** s_star equals the recorded baseline *)
}

type sweep_bench = {
  sweep_jobs : int;                   (** jobs in the pinned mini-sweep *)
  sweep_domains : int;                (** pool width of the parallel leg *)
  seq_s : float;                      (** sequential wall time, seconds *)
  par_s : float;                      (** [sweep_domains]-pool wall time *)
  par_speedup : float;                (** [seq_s /. par_s] *)
  deterministic : bool;
  (** rendered aggregate tables of the two legs byte-identical — a
      [false] here is a correctness bug in the parallel merge *)
}

type report = {
  instances : instance_report list;
  online_ms : float;
  online_baseline_ms : float;
  all_cold_warm_match : bool;
  (** conjunction over instances — a [false] here is a correctness bug *)
  all_baseline_match : bool;
  (** may be [false] on a different libm (the workload generator is
      float-seeded); informational, not fatal *)
  sweep : sweep_bench;
}

val run :
  ?repeats:int -> ?sweep_domains:int -> ?progress:(string -> unit) -> unit ->
  report
(** Runs the whole corpus.  [repeats] defaults to 5 (median after one
    warmup run); [sweep_domains] (default 2) is the pool width of the
    parallel sweep-bench leg; [progress] is called with each instance
    name before it is measured. *)

val to_json : report -> string
(** Machine-readable form (the BENCH_stretch.json schema). *)

val write_json : path:string -> report -> unit

val render : report -> string
(** Human-readable table. *)
