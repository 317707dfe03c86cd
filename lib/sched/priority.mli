(** Priority rules from the uni-processor literature (paper §4).

    Each rule maps a job, as seen in the current simulator state, to a
    key; lower keys mean higher priority, with ties broken by job id
    (i.e. release order).  The multi-machine extension of these rules is
    the list-scheduling loop of §3.2, implemented in {!List_sched}. *)

open Gripps_engine

type rule = Sim.state -> int -> float

val fcfs : rule
(** First come first served — optimal for max-flow on one processor
    (Bender et al. 1998). *)

val spt : rule
(** Shortest processing time first (original size [W_j]). *)

val srpt : rule
(** Shortest remaining processing time — optimal for sum-flow (Baker
    1974), 2-competitive for sum-stretch (Muthukrishnan et al. 1999). *)

val swpt : rule
(** Smith's ratio rule, [p_j / w_j = W_j²]: same order as SPT for stretch
    weights, as noted in §4.2. *)

val swrpt : rule
(** Shortest weighted remaining processing time, key [ρ_t(j) × W_j]: the
    natural sum-stretch heuristic studied by the paper (Theorem 2 shows
    its competitive ratio is no better than 2). *)
