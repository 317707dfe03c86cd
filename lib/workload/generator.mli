(** Random realization of platforms and workloads from a configuration
    (paper §5.1, "concrete simulation instances").

    Deterministic given the RNG stream; every experiment seeds its own
    {!Gripps_rng.Splitmix} so tables regenerate identically.  No fault
    trace is drawn here: a caller that wants outages draws its own with
    the engine's [Fault.poisson]. *)

open Gripps_model

type realized = {
  platform : Platform.t;     (** one machine per cluster (aggregate speed) *)
  db_sizes : float array;    (** databank sizes, MB *)
}

val platform : Gripps_rng.Splitmix.t -> Config.t -> realized
(** Draw cluster speeds from {!Config.reference_speeds}, databank sizes
    from {!Config.db_size_range}, and replicate each databank at each
    site with the configured probability (forcing at least one replica
    per databank). *)

val jobs : Gripps_rng.Splitmix.t -> Config.t -> realized -> Job.t list
(** Per-databank Poisson processes over the arrival window, with rates set
    so the expected total work matches the workload density; the merged
    flow is sorted by release date (stably: ties keep databank order) and
    numbered in that order.  Every job's size is its databank's size (a
    motif scans the whole databank).

    Draw order, which fixes every bit of the result: each databank's
    arrivals in ascending databank order, then — with more than one
    user — one user draw per job in that same concatenated order.  The
    draws land in flat columns; the records are built once, after the
    sort.

    @raise Invalid_argument when the draw expects more than 10{^8} jobs
    ([Σ_d per_db_work / size_d]), checked before any draw. *)

val instance : Gripps_rng.Splitmix.t -> Config.t -> Instance.t
(** [platform] + [jobs], retrying (with the same stream) in the unlikely
    event that a draw produces no job at all. *)
