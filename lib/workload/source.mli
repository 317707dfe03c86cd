(** Streaming job sources for the long-running scheduler daemon.

    A source is a pull stream of requests in non-decreasing release
    order, with one-item lookahead (the scalar reads below) so an
    event-driven consumer can learn the next arrival date without
    committing to it, and an explicit {b cursor} (items consumed so far)
    so a checkpointed daemon can reconstruct the exact same stream
    position after a crash.

    Two constructors:
    - {!of_file}/{!of_channel}: the line protocol — one request per line,
      [<release> <size> <databank>] (seconds, MB, 0-based index), with
      [#] comments and blank lines ignored.  Malformed lines raise
      [Failure] naming the line number; releases must be finite, >= 0
      and non-decreasing, sizes finite and > 0.
    - {!poisson}: the synthetic open-loop driver.  Item [k] is drawn from
      {!Gripps_rng.Splitmix.stream}[ base k] — a pure function of the
      seed and the index — so the stream can be re-entered at any cursor
      given only [(seed, cursor, clock)]: exactly what a checkpoint
      stores. *)

type item = { release : float; size : float; databank : int }

type t

(** {2 Lookahead}

    Scalar views of the lookahead item, for consumers under a
    minor-words budget (the streaming daemon's event loop): no [item]
    and no option is materialised. *)

val exhausted : t -> bool
(** No items remain. *)

val next_release : t -> float
(** Release date of the next item, or [infinity] when exhausted. *)

val next_size : t -> float
(** Size of the next item.
    @raise Invalid_argument when exhausted. *)

val next_databank : t -> int
(** Databank of the next item.
    @raise Invalid_argument when exhausted. *)

val drop : t -> unit
(** Consume the next item: advances the cursor and the clock.
    @raise Invalid_argument when exhausted. *)

val cursor : t -> int
(** Items consumed so far (the lookahead item does not count). *)

val clock : t -> float
(** Release date of the last {e consumed} item (0 before the first) —
    together with {!cursor} this is the source's whole restorable
    state. *)

val close : t -> unit
(** Release the underlying channel, if any (idempotent). *)

val of_channel : ?skip:int -> name:string -> in_channel -> t
(** Stream the line protocol from a channel.  [skip] consumes (and
    discards) that many leading items — the resume path; the skipped
    items must exist.  [name] labels parse errors (a path, or
    ["stdin"]).
    @raise Failure on a malformed or out-of-order line, or when [skip]
    overruns the stream. *)

val of_file : ?skip:int -> string -> t
(** [of_channel] on an opened file.  @raise Sys_error if unreadable. *)

val of_list : ?skip:int -> item list -> t
(** In-memory source (tests).  @raise Invalid_argument on decreasing
    releases. *)

val poisson :
  seed:int ->
  rate:float ->
  sizes:float array ->
  jobs:int ->
  ?cursor:int ->
  ?clock:float ->
  unit ->
  t
(** Open-loop Poisson arrivals: exponential inter-arrival gaps of mean
    [1/rate]; item [k]'s size and databank are a uniform pick from
    [sizes] (databank = picked index), everything drawn from the derived
    stream [k] of the seed.  Exactly [jobs] items.  [cursor]/[clock]
    re-enter the stream at a checkpointed position — resuming at
    [(cursor, clock)] yields bit-identical remaining items.
    @raise Invalid_argument on a [rate] not finite and positive (NaN
    included), a non-positive [jobs], an empty [sizes], or a [cursor]
    beyond [jobs]. *)
