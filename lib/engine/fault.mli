(** Machine failure traces and loss semantics.

    A fault trace is a chronological list of availability edges — machine
    [m] goes down / comes back up at date [t].  The simulator consumes a
    trace alongside the workload and turns each edge into a
    [Failure]/[Recovery] scheduler event (see {!Sim}).

    Two loss semantics govern what happens to in-flight work when a
    machine dies:

    - {!Crash}: the work performed on the dying machine since the last
      simulation event is lost and re-added to each affected job's
      remaining work (the job must be re-processed elsewhere or later);
    - {!Pause}: work is preserved; the machine is merely unavailable until
      its repair.

    Traces are deterministic: {!poisson} draws from an explicit
    {!Gripps_rng.Splitmix} stream, so a fixed seed reproduces the same
    outage pattern run after run. *)

open Gripps_model

type loss = Crash | Pause

type edge = { time : float; machine : int; up : bool }

type trace = edge list
(** Chronological (see {!normalize}); multiple machines may share a
    date. *)

val normalize : trace -> trace
(** Sort edges chronologically (repairs before failures at equal dates, so
    an instantaneous down/up pair leaves the machine down for the
    zero-length instant — the conservative reading).
    @raise Invalid_argument on NaN dates or negative machine ids. *)

val merge : trace -> trace -> trace
(** Union of two traces, normalized. *)

val of_platform : Platform.t -> trace
(** The trace encoded by the platform's static downtime intervals
    ({!Machine.with_downtime}); empty when no machine has downtime. *)

val poisson :
  Gripps_rng.Splitmix.t ->
  mtbf:float ->
  mttr:float ->
  machines:int ->
  until:float ->
  trace
(** Independent alternating renewal processes, one per machine id in
    [0, machines): exponential time-to-failure of mean [mtbf], exponential
    repair time of mean [mttr].  Failures are drawn on [0, until); every
    failure is paired with its repair even when the repair lands past
    [until], so no machine is left down forever.
    @raise Invalid_argument on [mtbf] or [mttr] not positive (NaN
    included), [machines <= 0], [until] infinite or NaN, or more than
    10{^7} expected failures ([machines * until / mtbf]), checked before
    any draw. *)

val pp : Format.formatter -> trace -> unit
