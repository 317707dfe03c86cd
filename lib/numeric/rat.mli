(** Exact rational numbers over {!Bigint}.

    Values are kept normalized: positive denominator, [gcd num den = 1],
    and canonical zero [0/1].  Every finite [float] converts exactly
    (doubles are dyadic rationals), which is what makes the milestone
    comparisons of the offline max-stretch algorithm exact even though the
    workload generator produces floats. *)

type t

include Field.ORDERED_FIELD with type t := t

(** {1 Construction} *)

val of_bigint : Bigint.t -> t

val make : Bigint.t -> Bigint.t -> t
(** [make num den].  @raise Division_by_zero if [den] is zero. *)

val of_ints : int -> int -> t
(** [of_ints num den].  @raise Division_by_zero if [den] is zero. *)

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {1 Extra arithmetic} *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val min_rat : t -> t -> t
val max_rat : t -> t -> t

val is_zero : t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

val of_string : string -> t
(** Accepts ["a"], ["a/b"] and decimal notation ["a.b"].
    @raise Invalid_argument on malformed input. *)

(** {1 Fast-path instrumentation}

    Rationals whose components fit a native [int] are stored unboxed and
    served by overflow-checked machine arithmetic; only genuine overflows
    fall back to the {!Bigint} representation.  Two observability
    counters track how often each route runs.  Like every
    {!Gripps_obs.Obs.Counter} they are domain-local, so parallel solver
    runs never lose increments, and a parallel sweep's
    {!Gripps_obs.Obs.Export} merges them with the rest. *)

val fast_hits : Gripps_obs.Obs.Counter.t
(** ["rat.fast_hits"]: arithmetic and comparison operations served
    entirely by native ints. *)

val fast_falls : Gripps_obs.Obs.Counter.t
(** ["rat.fast_falls"]: operations that needed Bigint arithmetic. *)
