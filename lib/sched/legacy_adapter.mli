(** The one home of the legacy list-plan scheduler contract.

    The engine executes flat ({!Gripps_engine.Sim.flat_scheduler})
    callbacks only; list-returning {!Gripps_engine.Sim.scheduler}s
    survive as {e oracles} — independent re-derivations the differential
    tests compare against the flat production path — and cross into the
    engine through this adapter, never as a parallel execution path. *)

open Gripps_engine

val flat : Sim.scheduler -> Sim.flat_scheduler
(** {!Sim.of_legacy}, re-exported where the oracles live: wrap a legacy
    list scheduler for any flat-only entry point (registry, federation,
    sweeps).  Bit-identical to the historical list path. *)

val resort_scheduler : name:string -> rule:Priority.rule -> Sim.scheduler
(** The original recompute-from-scratch list scheduler: rebuild and
    re-sort the whole active-job list at every event (O(n log n) per
    event) and hand the order to {!List_sched.allocate}.  Kept solely as
    the differential-test oracle for {!List_sched}'s rule engine, which
    reproduces its grab sequence bit for bit. *)
