(** A sequence-comparison server (paper §2).

    One machine models one cluster site: co-located identical processors
    sharing the same databank replicas are exactly equivalent, under the
    divisible model, to a single machine with their aggregate speed.

    The model has no notion of failure, like the paper's platform:
    outages reach a run only as the explicit fault trace its caller
    passes (see {!Gripps_engine} [Fault]). *)

type t = {
  id : int;
  speed : float;          (** Mflop/s; the paper's [1/p_i] *)
  databanks : bool array; (** [databanks.(d)] = replica of databank [d] present *)
}

val make : id:int -> speed:float -> databanks:bool array -> t
(** @raise Invalid_argument on non-positive speed. *)

val hosts : t -> int -> bool
(** [hosts m d] is true when databank [d] is replicated on [m]; a job
    needing [d] can only run there (restricted availability, §2.1). *)

val pp : Format.formatter -> t -> unit
