(** Imperative binary min-heap with a user-supplied order.

    Used for the simulator's event queue and for Dijkstra inside the
    min-cost-flow solver. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap ordered by [cmp] (smallest element on top). *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
val peek_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; ascending order. *)

(** Indexed min-heap over the dense id space [0, capacity): float keys,
    id as deterministic tiebreak, O(log n) add / decrease-or-increase-key
    / remove by id.  The drain order is exactly the ascending sort of the
    members' [(key, id)] pairs, which is what lets a heap-backed priority
    scheduler reproduce a sort-based one bit for bit.

    Backing for [List_sched]'s rule engine: one heap per databank keyed
    by the priority rule, ids = job ids (batch) or slot ids (daemon).

    {b Memory.}  A heap is two id-indexed columns ([keys], [pos]: one
    word each per id of the capacity) and two slot columns (the heap
    array and its keys) that start at 16 cells and double with the
    member count.  A {!family} of heaps shares one [keys]/[pos] pair,
    since each id lives in at most one of them: [k] heaps over [n] ids
    cost [2n] words plus their members, not [4kn]. *)
module Indexed : sig
  type t

  val create : capacity:int -> t
  (** Empty heap accepting ids in [0, capacity): a family of one.
      @raise Invalid_argument on a negative capacity. *)

  val family : capacity:int -> int -> t array
  (** [family ~capacity k]: [k] empty heaps over the ids [0, capacity)
      sharing one id-indexed key and position column.  An id is a member
      of at most one heap of the family at a time: {!add} refuses an id
      present in any of them, and {!mem}, {!key}, {!update} and
      {!remove} address the heap they are given — a sibling's member is
      absent from it.  The key cell of an id is shared too, so
      {!put_key} must only stage ids in no heap or in the heap it is
      then given to.
      @raise Invalid_argument on a negative capacity or count. *)

  val capacity : t -> int
  val size : t -> int
  val is_empty : t -> bool

  val mem : t -> int -> bool
  (** Is the id a member of this heap (not of a sibling in its
      family)?
      @raise Invalid_argument on an out-of-range id (all id-taking
      operations do). *)

  val key : t -> int -> float
  (** Current key of a member. @raise Invalid_argument if absent. *)

  val add : t -> int -> float -> unit
  (** @raise Invalid_argument if the id is already present in this heap
      or in a sibling of its family. *)

  val update : t -> int -> float -> unit
  (** Re-key a member (decrease or increase).
      @raise Invalid_argument if absent. *)

  val remove : t -> int -> unit
  (** @raise Invalid_argument if absent.  The removed id's key cell is
      left untouched, so a later {!add_keyed} reinstates the member with
      its old key without the caller having to save it. *)

  (** {2 Allocation-free key passing}

      In native code a [float] crossing a non-inlined call boundary is
      boxed on the minor heap, so [add h id k] costs one allocation per
      call.  The split protocol below stages the key with a single
      (inlinable) array store and then runs the O(log n) operation with
      no float in its signature — nothing is boxed. *)

  val put_key : t -> int -> float -> unit
  (** Stage [id]'s key.  No membership check: for a member this re-keys
      it {e without} restoring heap order (pair with {!update_keyed});
      for a non-member it sets the key a later {!add_keyed} will use.
      @raise Invalid_argument on an out-of-range id. *)

  val get_key : t -> int -> float
  (** Raw key-cell read, no membership check: meaningful for members and
      for ids staged with {!put_key} or removed with {!remove} since
      their last key write.  @raise Invalid_argument on out-of-range. *)

  val add_keyed : t -> int -> unit
  (** {!add} with the key already staged by {!put_key} (or left behind
      by {!remove}).  @raise Invalid_argument if already present in the
      family. *)

  val update_keyed : t -> int -> unit
  (** Restore heap order around [id] after {!put_key} changed its key.
      @raise Invalid_argument if absent. *)

  val slot_count : t -> int
  (** Number of members; slots [0 .. slot_count - 1] are live. *)

  val slot_id : t -> int -> int
  (** Member id stored in a heap slot.  Slot 0 is the minimum and the
      children of slot [i] are [2i+1] and [2i+2].  Unchecked: the slot
      must be [< slot_count]. *)

  val slot_key : t -> int -> float
  (** Key stored in a heap slot.  Inlines to an unboxed float read.
      Unchecked: the slot must be [< slot_count]. *)

  val min_elt : t -> int option
  (** Member with the smallest [(key, id)], without removing it. *)

  val min_exn : t -> int
  val pop : t -> int option
  val pop_exn : t -> int
  val clear : t -> unit

  val to_sorted_list : t -> int list
  (** Non-destructive; ascending [(key, id)] order. *)
end
