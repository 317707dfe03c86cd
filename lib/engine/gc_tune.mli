(** GC posture for throughput-bound runs (benchmarks, the serve daemon).

    The engine's steady-state event loop allocates nothing on the minor
    heap, so GC time is dominated by the bursts around it — instance
    generation, buffer growth, journal flushes.  {!throughput} sizes the
    minor heap at 64 MB on 64-bit so those bursts trigger rare, cheap
    scavenges, and raises [space_overhead] to 200 so the major collector
    stays lazy about multi-gigabyte job columns.  Applied by the CLI's
    [scale] and [serve] commands and by perfbench's [scale], [serve] and
    [serve_journal] workloads; a one-way switch (benchmark processes exit
    anyway), not a scoped override. *)

val throughput : unit -> unit
(** Apply the throughput posture to the current process. *)
