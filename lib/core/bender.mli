(** The two guaranteed on-line max-stretch algorithms from the literature,
    extended to the divisible restricted-availability setting with the
    §3.2 distribution rule (paper §4.3.2).

    [Bender98] (Bender, Chakrabarti & Muthukrishnan, SODA'98): at every
    arrival, recompute the optimal {e off-line} max-stretch [S*] of all
    jobs released so far (a full hindsight problem — this is what makes it
    prohibitively expensive, cf. §5.3), give every job the expanded
    deadline [r_j + α·S*·W_j] with [α = √Δ], and run Earliest Deadline
    First.

    [Bender02] (Bender, Muthukrishnan & Rajaraman, SODA'02): schedule by
    decreasing {e pseudo-stretch} [Ŝ_j(t) = (t − r_j)/√Δ] for short jobs,
    [(t − r_j)/Δ] for long ones, preempting at each arrival —
    O(√Δ)-competitive with negligible scheduling cost. *)

open Gripps_engine

val bender98 : Sim.flat_scheduler
val bender02 : Sim.flat_scheduler

val pseudo_stretch :
  delta:float -> min_size:float -> size:float -> release:float -> now:float -> float
(** The Bender02 priority value (exposed for unit tests). *)
