(** The columnar fluid kernel shared by every execution surface.

    One copy of the divisible-load semantics (paper §2.1): dense per-job
    rate/support columns loaded from a flat {!Plan_buf.t}, crash-loss
    bookkeeping, and the fluid advance with the sliver rule stated once.
    {!Sim} (batch runs), the [Gripps_service] daemon (slot pool) and —
    through them — [Gripps_federation] shards are thin drivers over this
    module: they own release/admission, event dispatch, journaling and
    metrics, while every float op that decides a completion date lives
    here.  Because both historical engines reduced to the same
    arithmetic, driving them through this kernel keeps their outputs
    (metrics, checkpoints, journals, golden tables) bit-identical to
    what they produced when each carried its own copy.

    The record is transparent: drivers read and write the columns
    directly — the kernel is an engine core, not an abstraction
    boundary.  All ops are allocation-free; dates travel through the
    [clock]/[scratch] cells so no float crosses a call boundary. *)

module Vec = Gripps_collections.Vec

val fmax : float -> float -> float
(** [if b > a then b else a] — the kernel's max, NaN-agnostic. *)

(** {1 Flat plan buffer}

    The one scheduler contract: a plan as parallel columns — machine
    "runs" indexing into a flat [(job, share)] entry array.  Every
    scheduler (batch, daemon, federation shard) writes its plan into a
    buffer the driver owns and clears/refills at every replan, so
    steady-state replanning allocates nothing.  Machines without a run
    are idle; shares must be positive and sum to at most 1 per run.

    {b Order contract.}  Accessors index runs in {e canonical} order:
    the order {!to_allocation} lists them and {!load_rates} accumulates
    them in.  Writers that emit runs in grab order (the list-scheduling
    walk, which historically built its list by {e prepending}) clear
    with [~grab_order:true]; the accessors then transparently reverse
    the runs — never the entries within a run — so the canonical order
    is the reverse push order, float summation order included. *)
module Plan_buf : sig
  type t = {
    mutable run_mach : int array;
    mutable run_start : int array;
    mutable nruns : int;
    mutable e_job : int array;
    mutable e_share : float array;
    mutable len : int;
    hor : float array;
    mutable grab_order : bool;
  }

  val create : unit -> t

  val clear : ?grab_order:bool -> t -> unit
  (** Empty the buffer and reset the horizon.  [grab_order] (default
      false) declares that runs will be pushed in reverse canonical
      order. *)

  val begin_machine : t -> int -> unit
  (** Start a new run for the given machine; subsequent {!push_share}
      calls append to it. *)

  val push_share : t -> job:int -> share:float -> unit
  (** @raise Invalid_argument before any {!begin_machine}. *)

  val push_unit_share : t -> job:int -> unit
  (** [push_share ~share:1.0] without a float in the signature, so the
      call allocates nothing (a [float] argument of a non-inlined call
      is boxed).  Full-share grabs are the common case — all of list
      scheduling. *)

  val set_horizon : t -> float -> unit
  (** Declare the plan valid only up to this date, which must be
      strictly later than the current one. *)

  val horizon : t -> float
  (** The declared horizon, or [infinity] when none was set. *)

  val runs : t -> int
  val is_empty : t -> bool

  val run_machine : t -> int -> int
  (** Machine of the [i]-th run, canonical order. *)

  val run_length : t -> int -> int

  val entry_job : t -> int -> int -> int
  (** [entry_job b i k]: job of the [k]-th share of the [i]-th canonical
      run. *)

  val entry_share : t -> int -> int -> float

  val to_allocation : t -> (int * (int * float) list) list
  (** Materialize the canonical-order [(machine, [(job, share)])] list
      (allocates; journaling only). *)
end

type t = {
  nm : int;  (** machines *)
  speeds : float array;  (** machine speeds, dense by machine id *)
  up : bool array;  (** current availability, flipped by {!pop_faults} *)
  mutable trace : Fault.edge list;  (** pending availability edges *)
  loss : Fault.loss;
  yard : float array;
      (** [yard.(0)]: the sliver yardstick.  The threshold below which
          remaining work is finished off at the segment end is
          [1e-9 *. fmax size.(j) yard.(0)] — Sim sets the yardstick to
          the instance's total work, the daemon leaves it [0.0] (making
          the rule [1e-9 × size] bit-for-bit). *)
  size : float array;  (** per-job (or per-slot) total work *)
  remaining : float array;
  ctimes : float array;
      (** completion dates; Sim keeps NaN while pending — the
          {!Gripps_model.Schedule.t} convention, so its report takes the
          column as its completion vector — and the daemon treats cells
          as scratch (slots recycle) *)
  lost : float array;  (** per-job Mflop destroyed by crashes *)
  lost_acc : float array;
      (** [lost_acc.(0)]: scalar total of destroyed work, accumulated in
          the same order as the per-job column (the daemon's checkpoint
          field) *)
  rates : float array;
  lost_rates : float array;
  rated : int Vec.t;  (** support of the current plan *)
  tiny : int Vec.t;  (** sub-sliver arrivals pending forced completion *)
  crashing : bool array;  (** machine dies at the current segment's end *)
  crashed : int Vec.t;  (** members of [crashing] *)
  completions : int Vec.t;
      (** jobs completed by the last {!advance}, in rated-then-tiny
          order — drivers sort with their own batch key *)
  flips : int Vec.t;
      (** fault flips from {!pop_faults}: [2*machine + (up ? 1 : 0)] *)
  clock : float array;  (** [clock.(0)]: current date *)
  scratch : float array;
      (** [scratch.(0)]: next-event min fold; [scratch.(1)]: the segment
          end ([t_next]) the driver stages before advancing *)
  plan : Plan_buf.t;
  mutable n_completed : int;
}

val create : loss:Fault.loss -> speeds:float array -> int -> t
(** [create ~loss ~speeds n]: a kernel for [n] job (or slot) ids and
    [Array.length speeds] machines, all up, clock 0, empty plan.  The
    driver initializes [size]/[remaining]/[ctimes] and [trace]. *)

val load_rates : t -> unit
(** Zero the old support's [rates]/[lost_rates], then reload from
    [plan] in canonical order: a job joins [rated] at its first positive
    contribution and accumulates [share *. speed] run by run.  The one
    accumulation order shared by Sim's validation pass, the daemon's
    replan, and the daemon's checkpoint restore. *)

val fold_next_completion : t -> unit
(** Fold the plan's earliest completion date into [scratch.(0)]
    (starting from [infinity]); drivers continue the min fold with their
    arrival/fault/boundary dates. *)

val any_live_run : t -> int -> bool
(** [any_live_run k i]: does any plan run at index ≥ [i] execute this
    segment (its machine up and not crashing)? *)

val begin_step : t -> unit
(** Reset the crash set for a new segment. *)

val crash_scan : t -> unit
(** Under [Crash] loss, mark machines whose down-edge falls inside the
    segment ending at [scratch.(1)] as crashing. *)

val load_lost_rates : t -> unit
(** Accumulate the rate each rated job loses to crashing machines
    (no-op when nothing crashed this segment). *)

val advance : t -> unit
(** Advance every rated job from [clock.(0)] to [scratch.(1)]: destroy
    crashing machines' contributions, complete jobs whose fluid finish
    date falls inside the segment, apply the sliver rule, then force
    sub-sliver arrivals ([tiny]) to complete.  Completions are pushed
    unsorted; the clock is {e not} advanced (drivers do, after
    materializing the segment). *)

val pop_faults : t -> unit
(** Pop every availability edge due at [clock.(0)] (within the event
    fuzz) and apply the flips to [up], recording each in [flips] so the
    driver can emit Failure/Recovery events in edge order. *)
