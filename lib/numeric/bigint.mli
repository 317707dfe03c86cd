(** Arbitrary-precision signed integers.

    Portable pure-OCaml bignums (sign–magnitude, base [2^30] limbs) built as
    a substrate for the exact rational arithmetic used by the offline
    max-stretch solver. The container is sealed: values are always
    normalized (no leading zero limbs, canonical zero). *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_int_opt : t -> int option
val fits_int : t -> bool

val of_string : string -> t
(** Decimal, with optional leading [-] or [+].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val to_float : t -> float
(** Truncate, then round: a value of more than 62 bits is cut to its top
    62 bits, which are rounded to the nearest double and scaled back.
    The result is within one ulp of the value but not always the
    nearest double: [to_float (2^62 + 2^9 + 1)] is [0x1p+62], not
    [0x1.0000000000001p+62].  Values of at most 62 bits convert to the
    nearest double; values beyond the double range map to infinities. *)

val pp : Format.formatter -> t -> unit

(** {1 Queries} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val numbits : t -> int
(** Number of bits of the magnitude; [numbits zero = 0]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r],
    [|r| < |b|] and [sign r ∈ {0, sign a}].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder in [0, |b|). *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift towards zero on the magnitude of non-negative values;
    for negative values this is the floor shift of the magnitude, negated
    (i.e. truncation towards zero). *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative exponent. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

(** {1 Comparisons} *)

val min : t -> t -> t
val max : t -> t -> t
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
