(* Theorem 2 in action: SWRPT is not (2 - ε)-competitive for sum-stretch.

   The Appendix A construction — a cascade of square-root-decreasing job
   sizes with two carefully placed release dates, a doubling tail and a
   long stream of unit jobs — tricks SWRPT into dragging the first (huge)
   job across the whole schedule while SRPT would have finished it early.
   As the unit tail grows, the sum-stretch ratio SWRPT/SRPT approaches 2.

   Run with:  dune exec examples/swrpt_adversary.exe *)

open Gripps_model
open Gripps_engine
module Adversary = Gripps_core.Adversary

let sum_stretch scheduler inst =
  (Sim.run_report_flat ~horizon:1e12 scheduler inst).Sim.metrics.Metrics.sum_stretch

let () =
  let epsilon = 0.6 in
  let p = Adversary.swrpt_parameters ~epsilon ~l:1 in
  Printf.printf "epsilon = %.2f: alpha = %.4f, n = %d, k = %d\n" epsilon
    p.Adversary.alpha p.Adversary.n p.Adversary.k;
  Printf.printf "target: SWRPT/SRPT sum-stretch ratio > 2 - eps = %.2f for large l\n\n"
    (2.0 -. epsilon);
  Printf.printf "%8s %8s %14s %14s %10s %12s\n" "l" "jobs" "SWRPT" "SRPT" "ratio"
    "analytic";
  List.iter
    (fun l ->
      let inst = Adversary.swrpt_instance ~epsilon ~l in
      let swrpt = sum_stretch Gripps_sched.List_sched.flat_swrpt inst in
      let srpt = sum_stretch Gripps_sched.List_sched.flat_srpt inst in
      let analytic = Adversary.theorem2_lower_bound ~epsilon ~l in
      Printf.printf "%8d %8d %14.2f %14.2f %10.4f %12.4f\n" l (Instance.num_jobs inst)
        swrpt srpt (swrpt /. srpt) analytic)
    [ 10; 50; 200; 1000; 3000 ]
