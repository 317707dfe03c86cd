(** Realized fluid schedules.

    A schedule is a sequence of time segments; within a segment each
    machine divides its time between jobs in fixed proportions (shares).
    This fluid view is fully general for the divisible model: any divisible
    schedule is piecewise constant between events, and time-multiplexing
    within a segment realizes fractional shares at no cost (preemption is
    free, §2.1). *)

type segment = {
  start_time : float;
  end_time : float;
  shares : (int * (int * float) list) list;
      (** [(machine, [(job, share); ...])]: share ∈ (0, 1] of the machine's
          time devoted to each job during the segment *)
}

type t = {
  instance : Instance.t;
  segments : segment list;  (** chronological *)
  completion : float array;
      (** [completion.(j)] = C_j, or NaN while job [j] is not completed.
          A NaN cell never equals anything under [=], itself included:
          compare two vectors with {!same_completion}. *)
}

val make :
  instance:Instance.t -> segments:segment list -> completion:float array -> t

(** Amortized O(1) segment accumulator for the simulator's hot loop —
    appends in chronological order without the [seg :: acc] / final
    [List.rev] churn of the list encoding. *)
module Builder : sig
  type builder

  val create : unit -> builder
  val length : builder -> int

  val add : builder -> segment -> unit
  (** Append a segment (amortized O(1)). *)

  val segments : builder -> segment list
  (** The accumulated segments in append order. *)
end

(** {1 Validation}

    [validate] checks the divisible-model invariants and returns a list of
    human-readable violations (empty = valid):
    - segments are chronological and non-degenerate;
    - per-machine shares are positive and sum to at most 1;
    - a job only runs on machines hosting its databank;
    - a job never runs before its release date;
    - every completed job received exactly its size in work (within
      tolerance), and no job received more;
    - completion times are consistent with the last segment in which the
      job ran. *)

val validate : t -> string list

val work_received : t -> int -> float
(** Total Mflop delivered to a job across all segments. *)

val machine_busy_time : t -> int -> float
(** Total busy time of a machine across all segments. *)

val is_completed : t -> int -> bool
(** [completion.(j)] is not NaN. *)

val completion_exn : t -> int -> float
(** @raise Failure when the job did not complete. *)

val all_completed : t -> bool

val same_completion : float array -> float array -> bool
(** Equal length and equal bits cell by cell ([Int64.bits_of_float]), so
    two pending jobs compare equal and [0.0] differs from [-0.0]. *)
val pp : Format.formatter -> t -> unit
