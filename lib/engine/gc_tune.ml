(* GC posture for throughput-bound runs.  The engine's steady state
   allocates (almost) nothing, so what remains to tune is the cost of
   everything around it: instance generation, plan-buffer growth, the
   occasional journal flush.  A big minor heap turns those bursts into
   rare, cheap scavenges instead of frequent ones, and a relaxed space
   overhead keeps the major collector from compacting multi-gigabyte
   job columns mid-benchmark. *)

let throughput_minor_words = 8 * 1024 * 1024 (* 64 MB of minor heap on 64-bit *)
let throughput_space_overhead = 200

let throughput () =
  let c = Gc.get () in
  Gc.set
    { c with
      Gc.minor_heap_size = throughput_minor_words;
      space_overhead = throughput_space_overhead }
