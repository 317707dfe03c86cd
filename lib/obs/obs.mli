(** Observability: trace spans, named counters, structured event journal.

    Zero external dependencies (only [unix], for the wall clock).  The
    subsystem is a process-global singleton with three verbosity levels:

    - {!Counters} (default): named counters count, nothing else happens.
      Counter increments are plain mutations of preallocated cells, so
      this level costs what the pre-observability ad-hoc counters cost.
    - {!Spans}: {!Span.with_} additionally records wall-clock durations,
      aggregated per span name (two clock reads per span).
    - {!Events}: the {!Journal} additionally accumulates typed records of
      everything the simulator and solvers do, replayable and
      serializable as JSONL.

    Below the active level every hook is a cheap no-op: {!Span.with_}
    reduces to calling its thunk and {!Journal.record} to a branch.
    Call sites that would allocate an event record should guard with
    {!Journal.on} so the disabled path allocates nothing.

    {b Domain safety.}  All mutable observability state — level, counter
    cells, span aggregates, the journal and its sink — is domain-local:
    each domain accumulates into its own copy, so concurrent solver runs
    in different domains never contend and never lose increments.  A
    freshly spawned domain inherits its parent's level and clock but
    starts with empty accumulators.  Only the counter name registry
    ({!Counter.make}) is shared (and mutex-guarded), so a counter handle
    created in one domain addresses that same counter's domain-local
    cell in every other.  Use
    {!Export} to capture the deltas a unit of work produced in one
    domain and fold them into another: merging worker deltas in a fixed
    canonical order makes a parallel run's counters, span aggregates and
    journal bit-identical to the sequential run's. *)

type level = Counters | Spans | Events

val level : unit -> level
val set_level : level -> unit

val with_level : level -> (unit -> 'a) -> 'a
(** Run the thunk with the level temporarily set (restored on return and
    on exception). *)

val spans_on : unit -> bool   (** [level () >= Spans] *)

val events_on : unit -> bool  (** [level () = Events] *)

val set_clock : (unit -> float) -> unit
(** Replace the span clock (default [Unix.gettimeofday]) — for
    deterministic tests.  The clock must be monotone non-decreasing for
    span durations to be meaningful. *)

(** {1 Counters}

    Named monotone counters, registered once and incremented from hot
    loops.  Unlike spans and the journal they are {e always} live —
    an increment is a single unboxed mutation — because the solver
    statistics contract ({!Gripps_core.Stretch_solver.stats}) predates
    the observability levels and must keep working at any level. *)

module Counter : sig
  type t

  val make : string -> t
  (** Create-or-get the counter registered under [name] (idempotent). *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
  val name : t -> string
end

val counters : unit -> (string * int) list
(** Snapshot of every registered counter, sorted by name. *)

val counter_value : string -> int option
(** Look up one registered counter by name. *)

val reset_counters : unit -> unit
(** Zero every registered counter. *)

(** {1 Spans}

    Hierarchical wall-clock trace spans.  Nesting is tracked with a
    depth counter; per-name aggregates (count, total seconds) answer
    "where did the time go" queries, and at {!Events} level each span
    closure is also journaled with its depth, start and duration. *)

module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span.  Below {!Spans} level this is exactly
      [f ()] — no clock read, no allocation.  Exception-safe: the span
      closes (and is journaled) even when the thunk raises. *)

  type summary = { name : string; count : int; total_s : float }

  val summaries : unit -> summary list
  (** Per-name aggregates since the last {!reset}, sorted by name. *)

  val total : string -> float
  (** Accumulated seconds of the named span (0 if never opened). *)

  val total_prefix : string -> float
  (** Sum of {!total} over every span whose name starts with the
      prefix — e.g. [total_prefix "solver."] for all solver pipelines. *)

  val count : string -> int
  val reset : unit -> unit
end

(** {1 Event journal}

    Typed records of everything observable in a run, in order.  The
    journal is the replay substrate: {!Gripps_engine.Replay} rebuilds
    the realized schedule from [Segment] and [Completion] records, and
    [gripps_cli trace --verify] checks the rebuilt metrics against the
    live ones. *)

module Journal : sig
  type sim_kind = Arrival | Completion | Boundary | Failure | Recovery

  type alloc = (int * (int * float) list) list
  (** [(machine, [(job, share); ...])] — a plan in canonical order, as
      {!Gripps_engine.Kernel.Plan_buf.to_allocation} lists it, without
      depending on the engine. *)

  type event =
    | Run_start of { scheduler : string; jobs : int; machines : int }
    | Sim_event of { time : float; kind : sim_kind; subject : int }
        (** [subject] is the job id (arrival/completion) or machine id
            (failure/recovery); [-1] for boundaries.  For completions
            [time] is the exact completion date [C_j], which may precede
            the segment end by a rounding sliver. *)
    | Replan of {
        time : float;
        scheduler : string;
        allocation : alloc;
        horizon : float option;
      }  (** a plan returned by the scheduler callback *)
    | Segment of { start_time : float; end_time : float; shares : alloc }
        (** a realized schedule segment (crash-lost shares excluded) *)
    | Probe of { pipeline : string; stretch : float; feasible : bool }
        (** one solver feasibility probe; [pipeline] is ["exact"] or
            ["float"]; [stretch] is the candidate objective (NaN when
            the probe tests a flow value rather than a stretch). *)
    | Span_closed of {
        name : string;
        depth : int;
        start_s : float;
        dur_s : float;
      }
    | Note of { key : string; value : string }
    | Run_end of { time : float; completed : int }

  val on : unit -> bool
  (** Equal to {!events_on}; guard event-record construction with it. *)

  val record : event -> unit
  (** Append to the journal ({!on} permitting) and forward to the sink. *)

  val set_sink : (event -> unit) option -> unit
  (** Streaming sink called on every event {!record}ed or {!forward}ed
      in this domain (e.g. to count records); [None] disables. *)

  val forward : event -> unit
  (** Hand the event to the sink only: nothing is stored, at any level.
      For callers that keep their own journal — the streaming daemon
      encodes its records straight into segment files with a {!Writer}
      and forwards each one here. *)

  val position : unit -> int
  (** Current position in the buffered journal — marks a point to
      {!since} from. *)

  val since : int -> event list
  (** Events recorded after the given {!position}, in order.  A position
      past the end (the journal was {!clear}ed since) is clamped: only
      what is still buffered comes back. *)

  val events : unit -> event list

  val clear : unit -> unit
  (** Drop everything and reset {!position} to 0. *)

  (** {2 JSONL}

      One JSON object per line.  Floats are printed as C's [%.17g]
      prints them, so every finite double round-trips bit-identically;
      NaN is written [null] and the infinities [1e999] / [-1e999]. *)

  (** An encoder that appends JSONL to a buffer it owns.  It carries its
      own state (the buffer, scratch bytes and a one-entry memo of the
      last float it formatted) and nothing else: a writer belongs to its
      caller, so writers in different domains never meet.  No [Printf]
      format is interpreted per field: ints are written two digits at a
      time, integral floats below 2{^53} through the int path,
      non-integral floats with 10{^-6} <= |x| < 2{^52} by an exact
      17-digit computation in OCaml, and every other float through the
      C primitive [Printf "%.17g"] itself ends in; a float equal to the
      last one formatted re-emits its bytes. *)
  module Writer : sig
    type t

    val create : unit -> t

    val buffer : t -> Buffer.t
    (** The bytes written so far.  The caller drains it when it likes
        ([Buffer.output_buffer], [Buffer.clear]); the memo does not
        depend on it. *)

    val int : t -> int -> unit
    (** Append [string_of_int n].  Allocates nothing. *)

    val float17 : t -> float -> unit
    (** Append [Printf.sprintf "%.17g" x], for every [x] (NaN and the
        infinities print as [Printf] prints them).  Allocates nothing,
        except that a float below 10{^-6} in magnitude (the double
        nearest 1e-6 included), an integral float from 2{^53} up, -0.0,
        NaN or an infinity, when it differs from the last float
        formatted, costs the C primitive's string. *)

    val float : t -> float -> unit
    (** Append a JSON number: [null] for NaN, [1e999] / [-1e999] for the
        infinities, otherwise {!float17}. *)

    val line : t -> event -> unit
    (** Append one record and its newline: [to_json e ^ "\n"]. *)
  end

  val to_json : event -> string
  (** One record, without its newline, through a fresh {!Writer}. *)

  val of_json : string -> event option
  (** Read a line emitted by {!to_json}: [of_json s = Some e] exactly
      when [s = to_json e], and [None] for every other string.  The
      line is walked in the writer's layout (keys in its order, no
      whitespace), and a number or string is accepted only in the form
      the writer prints its value in: ints exactly from their text
      (a fraction, an exponent, [null] or a value outside the int range
      is refused, never rounded), floats as [%.17g] or the
      [null]/[±1e999] sentinels, strings with the writer's escapes
      only.  Never raises. *)

  val write_jsonl : path:string -> event list -> unit
  (** Write the events to [path], one {!Writer.line} each, through one
      writer whose buffer is drained every 64 KiB. *)

  val read_jsonl_strict : path:string -> event list
  (** The events of a {!write_jsonl} file, integrity-checked: a line
      {!of_json} refuses (a blank line included) raises [Failure] naming
      the line number, and a partial last record (the file does not end
      in a newline — the signature of a crash-torn write) raises
      [Failure] naming the truncation, instead of being silently
      dropped.
      @raise Sys_error on unreadable files. *)
end

(** {1 Export: delta capture and cross-domain merge}

    The bridge the parallel sweep engine is built on.  A worker domain
    brackets each shard with {!Export.start}/{!Export.stop}, producing a
    self-contained delta (counter increments, span aggregates, the
    journal slice).  The coordinator then
    {!Export.merge}s the deltas {e in shard-index order}: counter and
    span addition is order-insensitive, and the journal slices
    concatenate into exactly the event sequence a sequential run would
    have recorded — which is what makes parallel sweeps bit-identical to
    sequential ones. *)

module Export : sig
  type mark
  (** A point-in-time snapshot of the calling domain's observability
      state. *)

  type t
  (** The deltas accumulated between a {!start} and a {!stop}. *)

  val start : unit -> mark

  val stop : mark -> t
  (** Deltas since [mark], in the calling domain.  Counter deltas are
      [value now - value at mark]; a shard that resets counters midway
      therefore exports the net change, exactly as a sequential run
      would leave the shared state. *)

  val merge : t -> unit
  (** Fold the deltas into the calling domain's state: add counters and
      span aggregates, and append the journal slice (also forwarding it
      to the calling domain's sink). *)

  val journal : t -> Journal.event list
  (** The captured journal slice, in recording order. *)

  val counter : t -> string -> int
  (** The delta of one named counter (0 if unchanged). *)
end
