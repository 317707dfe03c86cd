(** Simulation configurations (paper §5.1).

    A configuration fixes the six experimental features of the study:
    platform size (clusters), processor power (empirical reference
    values), number of databanks, databank sizes, databank availability,
    and workload density.  Processor power and databank sizes take the
    same values in every configuration: the constants {!reference_speeds}
    and {!db_size_range}.  Instances are then realized from a
    configuration and a random seed.  A configuration has no fault
    model: outages reach a run only as the fault trace its caller
    passes.

    Units: databank sizes in MB; processor speeds in MB/s (a job's size in
    MB is the work of scanning its whole databank; the paper's Mflop and
    second·Mflop⁻¹ are proportional).  The workload density [d] means the
    total work released during the arrival window is [d × total platform
    speed × window length], split evenly across databanks — a density
    above 1 overloads the platform while requests keep arriving, exactly
    the regime where stretch-based fairness matters. *)

type t = {
  sites : int;                 (** number of clusters *)
  processors_per_site : int;   (** identical processors per cluster (paper: 10) *)
  databases : int;             (** number of distinct databanks *)
  availability : float;        (** per-(databank, site) replication probability *)
  density : float;             (** workload density (see above) *)
  horizon : float;             (** arrival window, seconds (paper: 900) *)
  users : int;                 (** submitting users; jobs are tagged uniformly
                                   at random when above 1 (default 1) *)
}

val db_size_range : float * float
(** Databank sizes, MB, drawn uniformly in this range (paper: 10–1000). *)

val reference_speeds : float array
(** Per-processor speeds, MB/s, one drawn per site: the spread of the six
    GriPPS benchmark platforms.  Read it, never write it. *)

val default : t
(** 3 sites × 10 processors, 3 databanks, availability 0.6, density 1.0,
    900 s window. *)

val make :
  ?processors_per_site:int ->
  ?horizon:float ->
  ?users:int ->
  sites:int ->
  databases:int ->
  availability:float ->
  density:float ->
  unit ->
  t
(** @raise Invalid_argument on non-positive counts (including [users]),
    availability outside (0, 1], or density or horizon not finite and
    positive (NaN included). *)

val paper_grid : horizon:float -> unit -> t list
(** The full factorial design of §5.3: sites ∈ {3, 10, 20} × databases ∈
    {3, 10, 20} × availability ∈ {0.3, 0.6, 0.9} × density ∈
    {0.75, 1, 1.25, 1.5, 2, 3} — 162 configurations.  The arrival window
    of larger platforms shrinks as [3/sites] so the expected job count
    stays comparable across platform sizes (the paper instead kept 15
    minutes everywhere and let job counts grow with aggregate speed). *)

val describe : t -> string
