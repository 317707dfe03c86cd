(** One shard of a federated platform.

    The paper's Lemma 1 collapses a whole platform into one aggregate
    processor; federation scales {e out} instead: the machine fleet is
    partitioned into [K] disjoint sub-platforms, each running its own
    scheduler instance.  A shard owns a contiguous slice of the global
    machine array, renumbered to a well-formed {!Gripps_model.Platform.t}
    of its own (machine ids [0 .. m_s-1]), plus the index maps needed to
    translate jobs, machines and fault edges between the global and the
    shard-local coordinate frames.

    Databank replication is preserved verbatim: every shard machine keeps
    its full-length databank vector, so a shard hosts exactly the
    databanks its machines replicate.  A job can only be routed to a
    shard hosting its databank — the {!hosts} predicate is the
    eligibility constraint every {!Frontend} policy routes under. *)

open Gripps_model

type t = {
  index : int;             (** shard id, [0 .. K-1] *)
  machines : int array;    (** global machine ids owned, ascending *)
  platform : Platform.t;   (** the renumbered sub-platform *)
}

val partition : Platform.t -> shards:int -> t array
(** Split the fleet into [shards] contiguous, balanced slices (shard [k]
    owns global machines [⌊k·m/K⌋ .. ⌊(k+1)·m/K⌋-1]).  With one shard the
    sub-platform is structurally identical to the input — a 1-shard
    federation degenerates to the single-aggregate platform.
    @raise Invalid_argument unless [1 <= shards <= num_machines]. *)

val num_machines : t -> int
val speed : t -> float
(** Aggregate speed of the shard — its Lemma 1 equivalent processor. *)

val hosts : t -> int -> bool
(** Does some machine of the shard replicate the given databank? *)

val db_speed : t -> int -> float
(** Aggregate speed of the shard machines replicating the databank: the
    shard's peak processing rate for a job needing it (0 when the shard
    does not host it). *)

val project_faults : t -> Gripps_engine.Fault.trace -> Gripps_engine.Fault.trace
(** The slice of a global fault trace that hits this shard's machines,
    with machine ids translated to shard-local — the trace a shard's own
    simulation consumes. *)

val sub_instance :
  t -> Instance.t -> (int * float) list -> Instance.t * int array
(** [sub_instance shard inst routed] builds the shard's own scheduling
    problem from the routed jobs: [(global job id, effective release)]
    pairs, where the effective release is the job's original release for
    a directly-dispatched job and the migration date for a migrated one
    (a shard can never see work before the front-end handed it over).
    Sizes, databanks and user tags are preserved.  Returns the
    sub-instance (jobs renumbered [0 .. n_s-1] in effective-release
    order) and the local→global id map.
    @raise Invalid_argument when a routed job's databank is not hosted
    by the shard (the front-end must respect {!hosts}). *)
