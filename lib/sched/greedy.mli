(** The greedy baselines of the simulation study (paper §5.3).

    [MCT] ("minimum completion time") is effectively the policy of the
    production GriPPS scheduler: each job is placed, on arrival, on the
    one machine that would finish it earliest, queues are FIFO, and
    nothing already scheduled is ever changed (no preemption, no
    divisibility).

    [MCT-Div] exploits divisibility: on arrival the job is poured into
    the earliest idle capacity of {e all} machines holding its databank
    (the §3.2 distribution rule), again without touching prior
    commitments. *)

open Gripps_engine

val mct : Sim.flat_scheduler
val mct_div : Sim.flat_scheduler
