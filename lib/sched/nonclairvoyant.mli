(** Non-clairvoyant schedulers (Robert–Schabanel, PAPERS.md).

    Both schedulers are written exclusively against the size-blind
    {!Gripps_engine.Sim.Blind} view, so they compile without any access
    to [W_j], remaining work or the instance: non-clairvoyance holds by
    construction, not by convention.  They quantify the price of
    clairvoyance against the paper's size-aware heuristics (see the
    clairvoyance-gap table in {!Gripps_experiments.Tables}). *)

open Gripps_engine

val equi : Sim.flat_scheduler
(** EQUI: each up machine shares its time equally among the active jobs
    whose databank it hosts (processor sharing). *)

val default_quantum : float
(** 1 second — the quantum of {!rr}. *)

val rr : Sim.flat_scheduler
(** Round-robin with the default quantum: the active jobs, rotated one
    position per expired quantum, grab free hosts of their databank in
    rotation order (list scheduling); the plan horizon fires the
    preemption. *)

val rr_with : quantum:float -> Sim.flat_scheduler
(** @raise Invalid_argument on a non-positive quantum. *)
