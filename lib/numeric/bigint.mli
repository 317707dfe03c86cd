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
(** The quotient of {!divmod} without its remainder.  The divisors that
    exact divisions (a value by its gcd, a common multiple by a
    denominator) meet most are served first and allocate only the
    result: [div a (±1)] returns [a] or its negation, [div a (±2^k)] is
    a shift of the magnitude, a one-limb divisor runs one pass of
    single-limb division, and any other divisor runs Knuth's algorithm D.
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder in [0, |b|). *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero].
    The common power of two comes out first: [gcd (2^i a') (2^j b') =
    2^min(i,j) gcd a' b'] for odd [a'], [b'], which is the power of two
    alone when an odd part is 1.  Odd parts of at most 62 bits meet in
    native Euclid.  Larger ones run Lehmer's algorithm: each round takes
    the quotients of the leading 61 bits in native ints while they are
    certain and their cofactors stay below 2^29, applies the cofactors
    to both values in one pass over the limbs, and makes one true
    division only when not even the first quotient qualifies.  Native
    Euclid finishes once both values fit in 62 bits. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift towards zero on the magnitude of non-negative values;
    for negative values this is the floor shift of the magnitude, negated
    (i.e. truncation towards zero). *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative exponent. *)

(** {1 Comparisons} *)

val min : t -> t -> t
val max : t -> t -> t
