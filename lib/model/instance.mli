(** A scheduling problem instance: a platform plus a flow of requests.

    Jobs are stored sorted by release date (the paper numbers jobs by
    increasing release dates, §2.2).

    {b Layout.}  The instance is four columns indexed by job id —
    release dates and sizes as [float array], databanks and user tags as
    [int array] — so a job costs four words and a float read is an
    unboxed load.  Hot paths read the per-index accessors or the column
    views below; {!job} and {!jobs} build [Job.t] records on demand for
    the cold paths (solver snapshots, printing, re-partitioning). *)

type t

val make : platform:Platform.t -> jobs:Job.t list -> t
(** Sorts the jobs by release date and renumbers their [id] fields to the
    sorted positions.  The sort is stable and uses
    {!Job.compare_by_release}, so ties keep their [(release, id)] order
    and then their list order.
    @raise Invalid_argument when a job references a databank absent from
    every machine (it could never run) or out of range. *)

val platform : t -> Platform.t
val num_jobs : t -> int

(** {1 Per-job readers}

    One array read each; small enough to inline, so a float result stays
    unboxed in the caller. *)

val release : t -> int -> float
val size : t -> int -> float
val databank : t -> int -> int
val user : t -> int -> int

(** {1 Column views}

    The columns themselves, id-indexed, for engines that scan them in a
    loop.  Read-only by convention, like the fluid kernel's columns: an
    instance is shared by every run over it, so writing a cell would
    change it for all of them. *)

val releases : t -> float array
val sizes : t -> float array
val databanks : t -> int array

(** {1 Records (cold path)} *)

val job : t -> int -> Job.t
(** A fresh record for job [i] (allocates). *)

val jobs : t -> Job.t array
(** Fresh records for every job, in id order (allocates O(n)). *)

val num_users : t -> int
(** [1 + max user tag] — the size of the array a per-user aggregate needs.
    Always at least 1 (an empty or untagged instance has one user). *)

val delta : t -> float
(** The paper's Δ: ratio of the largest to the smallest job size. *)

val ideal_time : t -> int -> float
(** [ideal_time inst j]: time job [j] would take alone, using every
    machine hosting its databank at full speed — the lower bound on its
    flow time. *)

val pp : Format.formatter -> t -> unit
