(** Simulation configurations (paper §5.1).

    A configuration fixes the six experimental features of the study:
    platform size (clusters), processor power (empirical reference
    values), number of databanks, databank sizes, databank availability,
    and workload density.  Instances are then realized from a
    configuration and a random seed.

    Units: databank sizes in MB; processor speeds in MB/s (a job's size in
    MB is the work of scanning its whole databank; the paper's Mflop and
    second·Mflop⁻¹ are proportional).  The workload density [d] means the
    total work released during the arrival window is [d × total platform
    speed × window length], split evenly across databanks — a density
    above 1 overloads the platform while requests keep arriving, exactly
    the regime where stretch-based fairness matters. *)

type fault_axis = {
  mtbf : float;  (** per-machine mean time between failures, seconds *)
  mttr : float;  (** mean time to repair, seconds *)
  loss : Gripps_engine.Fault.loss;  (** crash (work lost) or pause (preserved) *)
}
(** The fault-model axis: each machine fails as an independent alternating
    renewal process (exponential uptime of mean [mtbf], exponential repair
    of mean [mttr]) during the arrival window. *)

type t = {
  sites : int;                 (** number of clusters *)
  processors_per_site : int;   (** identical processors per cluster (paper: 10) *)
  databases : int;             (** number of distinct databanks *)
  availability : float;        (** per-(databank, site) replication probability *)
  density : float;             (** workload density (see above) *)
  horizon : float;             (** arrival window, seconds (paper: 900) *)
  db_size_range : float * float;  (** databank sizes, MB (paper: 10–1000) *)
  reference_speeds : float array; (** per-processor speeds, MB/s (empirical) *)
  faults : fault_axis option;  (** fault model; [None] = reliable machines *)
  users : int;                 (** submitting users; jobs are tagged uniformly
                                   at random when above 1 (default 1) *)
}

val default : t
(** 3 sites × 10 processors, 3 databanks, availability 0.6, density 1.0,
    900 s window, 10–1000 MB databanks, the six GriPPS-like reference
    speeds. *)

val fault_axis :
  ?loss:Gripps_engine.Fault.loss -> mtbf:float -> mttr:float -> unit -> fault_axis
(** [loss] defaults to {!Gripps_engine.Fault.Crash}.
    @raise Invalid_argument on non-positive [mtbf] or [mttr]. *)

val make :
  ?processors_per_site:int ->
  ?horizon:float ->
  ?db_size_range:float * float ->
  ?reference_speeds:float array ->
  ?faults:fault_axis ->
  ?users:int ->
  sites:int ->
  databases:int ->
  availability:float ->
  density:float ->
  unit ->
  t
(** @raise Invalid_argument on non-positive counts (including [users]),
    availability outside (0, 1], density or horizon not finite and
    positive (NaN included), or a degenerate size range. *)

val with_faults : t -> fault_axis -> t

val paper_grid : ?scale_window:bool -> horizon:float -> unit -> t list
(** The full factorial design of §5.3: sites ∈ {3, 10, 20} × databases ∈
    {3, 10, 20} × availability ∈ {0.3, 0.6, 0.9} × density ∈
    {0.75, 1, 1.25, 1.5, 2, 3} — 162 configurations.  With [scale_window]
    (default true) the arrival window of larger platforms shrinks as
    [3/sites] so the expected job count stays comparable across platform
    sizes (the paper instead kept 15 minutes everywhere and let job
    counts grow with aggregate speed). *)

val describe : t -> string
