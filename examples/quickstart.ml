(* Quickstart: build a tiny heterogeneous platform by hand, submit a small
   flow of motif-comparison requests, and compare a classic heuristic with
   the exact optimal max-stretch scheduler.

   Run with:  dune exec examples/quickstart.exe *)

open Gripps_model
open Gripps_engine
module Q = Gripps_numeric.Rat

let () =
  (* Two sequence-comparison servers.  Server 0 hosts databanks 0 and 1;
     server 1 (twice as fast) only hosts databank 1. *)
  let platform =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; true |];
          Machine.make ~id:1 ~speed:2.0 ~databanks:[| false; true |] ]
      ~num_databanks:2
  in
  (* Five requests: release date (s), work (MB of databank to scan),
     target databank. *)
  let jobs =
    [ Job.make ~id:0 ~release:0.0 ~size:6.0 ~databank:0;
      Job.make ~id:1 ~release:0.5 ~size:2.0 ~databank:1;
      Job.make ~id:2 ~release:1.0 ~size:1.0 ~databank:1;
      Job.make ~id:3 ~release:1.5 ~size:4.0 ~databank:0;
      Job.make ~id:4 ~release:2.0 ~size:0.5 ~databank:1 ]
  in
  let inst = Instance.make ~platform ~jobs in

  (* The exact optimal max-stretch, computed in rational arithmetic. *)
  let opt = Gripps_core.Offline.optimal_max_stretch inst in
  Printf.printf "exact optimal max-stretch: S* = %s = %.6f\n\n" (Q.to_string opt)
    (Q.to_float opt);

  (* Simulate three schedulers and print their metrics. *)
  let show scheduler =
    let schedule = (Sim.run_report_flat scheduler inst).Sim.schedule in
    assert (Schedule.validate schedule = []);
    let m = Metrics.of_schedule schedule in
    Printf.printf "%-12s max-stretch = %.4f   sum-stretch = %.4f\n" scheduler.Sim.fname
      m.Metrics.max_stretch m.Metrics.sum_stretch
  in
  show Gripps_sched.List_sched.flat_swrpt;
  show (Gripps_sched.Legacy_adapter.flat Gripps_core.Online_lp.online);
  show (Gripps_sched.Legacy_adapter.flat Gripps_core.Offline.scheduler);

  (* Inspect the realized optimal schedule segment by segment, then as a
     text Gantt chart. *)
  let optimal_schedule = Sim.run Gripps_core.Offline.scheduler inst in
  Printf.printf "\nrealized optimal schedule:\n";
  Format.printf "%a@." Schedule.pp optimal_schedule;
  Printf.printf "\n%s" (Gantt.render ~width:60 optimal_schedule)
