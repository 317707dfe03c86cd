(** Maximum flow (Dinic's algorithm) over IEEE doubles, on flat arrays.

    The float feasibility probes of the stretch solver run thousands of
    max-flows on graphs of a few dozen edges, so their cost is the
    constant per edge visit.  This kernel keeps the graph in unboxed int
    and float arrays (head/next edge lists, residual and original
    capacities) with preallocated level, queue, current-arc and path
    buffers, and augments iteratively.  One value is a workspace: a
    caller builds a graph, solves it, reads the flows, then {!reset}s it
    for the next graph without allocating again.  A workspace belongs to
    one caller at a time; do not share one between domains.

    The results are bit for bit those of
    [Maxflow.Make (Field.Float)] on the same edge list: the same
    adjacency order (the edge added last is visited first), the same
    1e-9 threshold on residual capacities and pushes, the same
    bottleneck and source limit, and the same summation order of the
    total.  Unlike that functor it has no warm start, capacity update,
    min cut or capacity scaling. *)

type t

val create : n:int -> t
(** Empty graph with vertices [0 .. n-1]. *)

val reset : t -> n:int -> unit
(** Drop every edge and resize to vertices [0 .. n-1], keeping the
    buffers. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> int
(** Adds a directed edge and its residual twin; returns the edge's
    handle for {!flow_on}.  Handles count up from 0 in steps of 2 since
    the last {!reset}.
    @raise Invalid_argument on an out-of-range vertex or a capacity
    below [-1e-9]. *)

val max_flow : t -> source:int -> sink:int -> float
(** Computes a maximum flow from zero and returns its value.  Each
    augmenting path adds one to the [flow.augmentations] counter.
    @raise Invalid_argument if [source = sink] or either is out of
    range. *)

val flow_on : t -> int -> float
(** Flow on the edge with this handle after {!max_flow}. *)
