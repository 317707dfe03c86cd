(* Lemma 1 and Figure 2 of the paper.

   Part 1 (Figure 1): a uniform divisible platform is equivalent to one
   preemptive processor of aggregate speed — every priority heuristic
   produces identical completion times on both.

   Part 2 (Figure 2): with restricted availability the equivalence breaks;
   distributing work greedily is no longer always dominant, and completion
   time vectors become incomparable.

   Run with:  dune exec examples/equivalence_demo.exe *)

open Gripps_model
open Gripps_engine
module Equivalence = Gripps_core.Equivalence

let () =
  (* --- Part 1: uniform platform ≡ aggregate uniprocessor -------------- *)
  let platform = Platform.uniform ~speeds:[ 1.0; 2.0; 3.0 ] in
  let jobs =
    [ Job.make ~id:0 ~release:0.0 ~size:6.0 ~databank:0;
      Job.make ~id:1 ~release:0.5 ~size:3.0 ~databank:0;
      Job.make ~id:2 ~release:1.0 ~size:1.5 ~databank:0 ]
  in
  let inst = Instance.make ~platform ~jobs in
  let uni = Equivalence.to_uniprocessor inst in
  Printf.printf "Lemma 1: 3 machines of speeds 1+2+3 == 1 machine of speed %.0f\n"
    (Equivalence.equivalent_speed platform);
  Printf.printf "%-8s %18s %18s\n" "job" "C_j (3 machines)" "C_j (equivalent)";
  let srpt inst =
    (Sim.run_report_flat Gripps_sched.List_sched.flat_srpt inst).Sim.schedule
  in
  let s3 = srpt inst in
  let s1 = srpt uni in
  List.iter
    (fun j ->
      Printf.printf "%-8d %18.4f %18.4f\n" j (Schedule.completion_exn s3 j)
        (Schedule.completion_exn s1 j))
    [ 0; 1; 2 ];

  (* --- Part 2: restricted availability breaks the equivalence --------- *)
  Printf.printf
    "\nFigure 2: with restricted availability, distributions are incomparable.\n";
  let restricted =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
          Machine.make ~id:1 ~speed:1.0 ~databanks:[| true; true |] ]
      ~num_databanks:2
  in
  (* J0 can run anywhere; J1 only on machine 1. *)
  let jobs =
    [ Job.make ~id:0 ~release:0.0 ~size:2.0 ~databank:0;
      Job.make ~id:1 ~release:0.0 ~size:2.0 ~databank:1 ]
  in
  let rinst = Instance.make ~platform:restricted ~jobs in
  let describe name order =
    let fixed =
      Sim.flat_stateless name (fun st buf ->
          let alive =
            List.filter (fun j -> not (Sim.is_completed st j)) order
          in
          Gripps_sched.List_sched.allocate st ~priority_order:alive buf)
    in
    let s = (Sim.run_report_flat fixed rinst).Sim.schedule in
    Printf.printf "  %-24s C0 = %.2f, C1 = %.2f\n" name
      (Schedule.completion_exn s 0) (Schedule.completion_exn s 1)
  in
  (* Prioritizing J0 spreads it on both machines and delays J1; the
     reverse helps J1 but hurts J0: neither vector dominates. *)
  describe "J0 first (spread J0)" [ 0; 1 ];
  describe "J1 first (spread J1)" [ 1; 0 ];
  Printf.printf
    "Neither completion-time vector dominates the other: the uni-processor\n\
     reduction of Lemma 1 does not extend to restricted availability.\n"
