(* Theorem 1 in action: sum-based metrics starve jobs.

   One long job (size Δ) arrives at t = 0, then a unit job arrives every
   time unit.  SRPT — 2-competitive for sum-stretch — keeps preferring the
   fresh unit jobs, so the long job's stretch grows without bound, while
   the optimal max-stretch stays small.  Max-stretch optimization is the
   fairness-preserving choice (paper §3.2).

   Run with:  dune exec examples/starvation_demo.exe *)

open Gripps_model
open Gripps_engine
module Adversary = Gripps_core.Adversary
module Offline = Gripps_core.Offline
module Q = Gripps_numeric.Rat

let () =
  let delta = 4.0 in
  Printf.printf "%6s %18s %18s %14s\n" "k" "SRPT max-stretch" "opt max-stretch"
    "SRPT sum-str";
  List.iter
    (fun k ->
      let inst = Adversary.starvation ~delta ~k in
      let srpt =
        (Sim.run_report_flat Gripps_sched.List_sched.flat_srpt inst).Sim.metrics
      in
      let opt = Q.to_float (Offline.optimal_max_stretch inst) in
      Printf.printf "%6d %18.3f %18.3f %14.3f\n" k srpt.Metrics.max_stretch opt
        srpt.Metrics.sum_stretch)
    [ 5; 10; 20; 40; 80 ];
  print_newline ();
  Printf.printf
    "SRPT's max-stretch grows linearly in k (the long job starves) while the\n\
     optimal max-stretch converges: no sum-stretch-competitive algorithm can\n\
     bound the max-stretch (Theorem 1).\n"
