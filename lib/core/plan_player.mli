(** Replaying per-machine commitments inside the simulator.

    Shared by the clairvoyant [Offline] scheduler and the on-line LP
    heuristics: a plan is a set of {!Realize.commitment} lists, and the
    player turns "what should run right now" into engine allocations with
    a horizon at the next commitment edge.

    Floating-point hygiene: commitments come from exact rational layouts
    rounded to floats, so a job can complete a hair before its last chunk
    ends, or leave a sliver of work after the plan is exhausted.  The
    player filters completed jobs from allocations and, when the plan runs
    dry while work remains, falls back to SWRPT list scheduling to mop up
    the residue. *)

open Gripps_engine

type t

val create : unit -> t

val set_plan : t -> (int * Realize.commitment list) list -> unit
(** Replace all commitments (machine ids absent from the list become
    idle). *)

val step : t -> Sim.state -> Sim.Plan_buf.t -> unit
(** Write the allocation for the current date, with a horizon at the
    next commitment boundary, into the engine's (grab-order) buffer.  A
    machine whose commitments overlap at the current date gets one run
    per covering commitment. *)
