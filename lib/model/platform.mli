(** A heterogeneous collection of databank servers.

    Every machine is up for the whole run, as in the paper; outages
    reach a run only as an explicit fault trace (see {!Machine}). *)

type t

val make : machines:Machine.t list -> num_databanks:int -> t
(** @raise Invalid_argument when empty, when machine ids are not
    [0 .. m-1] in order, or when a machine's databank vector has the wrong
    length. *)

val machines : t -> Machine.t array
val num_machines : t -> int
val num_databanks : t -> int
val machine : t -> int -> Machine.t

val total_speed : t -> float
(** Aggregate speed of every machine — the equivalent-processor speed of
    Lemma 1 when availability is unrestricted. *)

val hosts_of : t -> int -> Machine.t list
(** Machines holding a replica of the given databank. *)

val speed_for : t -> int -> float
(** Aggregate speed of the machines holding the given databank: the peak
    processing rate of a job needing it. *)

val can_run : t -> Job.t -> Machine.t -> bool

val uniform : speeds:float list -> t
(** Platform with a single databank replicated everywhere — the uniform
    (unrestricted) setting of Lemma 1. *)

val single : speed:float -> t
(** One machine, one databank: the uni-processor model of §4. *)

val pp : Format.formatter -> t -> unit
