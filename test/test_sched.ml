(* Classic heuristics: hand-checked traces on small instances, optimality
   facts from the literature verified against brute force, and MCT /
   MCT-Div behaviour. *)

open Gripps_model
open Gripps_engine
open Gripps_sched

let mk_job ?(id = 0) ?(release = 0.0) ?(size = 1.0) ?(databank = 0) () =
  Job.make ~id ~release ~size ~databank

let uni = Platform.single ~speed:1.0
let run sched inst = Sim.run ~horizon:1e7 sched inst
let run_flat sched inst = (Sim.run_report_flat ~horizon:1e7 sched inst).Sim.schedule
let completion sched inst j = Schedule.completion_exn (run_flat sched inst) j

let metrics sched inst = Metrics.of_schedule (run_flat sched inst)

let test_fcfs_order () =
  let inst =
    Instance.make ~platform:uni
      ~jobs:
        [ mk_job ~size:3.0 (); mk_job ~id:1 ~release:1.0 ~size:1.0 () ]
  in
  (* FCFS never preempts job 0 for job 1. *)
  Alcotest.(check (float 1e-9)) "C0" 3.0 (completion List_sched.flat_fcfs inst 0);
  Alcotest.(check (float 1e-9)) "C1" 4.0 (completion List_sched.flat_fcfs inst 1)

let test_srpt_preempts () =
  let inst =
    Instance.make ~platform:uni
      ~jobs:[ mk_job ~size:3.0 (); mk_job ~id:1 ~release:1.0 ~size:1.0 () ]
  in
  (* At t = 1, remaining are 2 and 1: SRPT switches to job 1. *)
  Alcotest.(check (float 1e-9)) "C1 preempts" 2.0
    (completion List_sched.flat_srpt inst 1);
  Alcotest.(check (float 1e-9)) "C0 resumes" 4.0
    (completion List_sched.flat_srpt inst 0)

let test_spt_vs_srpt_difference () =
  (* SPT uses original sizes: an almost-finished long job is preempted by
     a shorter one, unlike SRPT. *)
  let inst =
    Instance.make ~platform:uni
      ~jobs:[ mk_job ~size:4.0 (); mk_job ~id:1 ~release:3.5 ~size:2.0 () ]
  in
  (* At t = 3.5: remaining(J0) = 0.5 < 2 so SRPT finishes J0 first. *)
  Alcotest.(check (float 1e-9)) "SRPT finishes J0" 4.0
    (completion List_sched.flat_srpt inst 0);
  (* SPT compares original sizes 4 > 2 and preempts J0. *)
  Alcotest.(check (float 1e-9)) "SPT preempts J0" 5.5
    (completion List_sched.flat_spt inst 1);
  Alcotest.(check (float 1e-9)) "SPT delays J0" 6.0
    (completion List_sched.flat_spt inst 0)

let test_swrpt_keeps_almost_done_job () =
  (* SWRPT weighs remaining time by size: J0 nearly done wins even though
     its original size is larger. *)
  let inst =
    Instance.make ~platform:uni
      ~jobs:[ mk_job ~size:4.0 (); mk_job ~id:1 ~release:3.5 ~size:2.0 () ]
  in
  (* keys at 3.5: J0 = 0.5*4 = 2; J1 = 2*2 = 4 -> J0 first. *)
  Alcotest.(check (float 1e-9)) "SWRPT finishes J0" 4.0
    (completion List_sched.flat_swrpt inst 0)

let test_restricted_availability_distribution () =
  (* Two machines; db 0 on both, db 1 on machine 1 only.  The high
     priority job (small) grabs both machines; the other waits. *)
  let p =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
          Machine.make ~id:1 ~speed:1.0 ~databanks:[| true; true |] ]
      ~num_databanks:2
  in
  let inst =
    Instance.make ~platform:p
      ~jobs:[ mk_job ~size:2.0 ~databank:0 (); mk_job ~id:1 ~size:4.0 ~databank:1 () ]
  in
  let sched = run_flat List_sched.flat_srpt inst in
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched);
  (* J0 (remaining 2) runs on both machines, finishing at t = 1; J1 gets
     machine 1 only afterwards... J1 can only use machine 1: it idles
     while J0 holds both.  C1 = 1 + 4 = 5?  No: while J0 runs on both,
     machine 1 is taken; afterwards J1 runs on machine 1 alone. *)
  Alcotest.(check (float 1e-9)) "C0" 1.0 (Schedule.completion_exn sched 0);
  Alcotest.(check (float 1e-9)) "C1" 5.0 (Schedule.completion_exn sched 1)

(* Brute-force optimal preemptive schedules on a unit-speed uniprocessor:
   enumerate priority orders (an optimal preemptive schedule for sum-flow
   style objectives is induced by some priority list; see §3.2). *)
let brute_force_best inst ~objective =
  let n = Instance.num_jobs inst in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let best = ref infinity in
  List.iter
    (fun order ->
      let fixed =
        Sim.stateless "fixed-order" (fun st _events ->
            let alloc =
              List_sched.allocate st
                ~priority_order:(List.filter (fun j -> Sim.is_released st j
                                                      && not (Sim.is_completed st j)) order)
            in
            { Sim.allocation = alloc; horizon = None })
      in
      let m = Metrics.of_schedule (run fixed inst) in
      best := Float.min !best (objective m))
    (permutations (List.init n Fun.id));
  !best

let small_instance_gen =
  QCheck2.Gen.(
    let* njobs = int_range 1 5 in
    let* jobs =
      list_size (return njobs)
        (let* release = map (fun i -> float_of_int i /. 2.0) (int_range 0 8) in
         let* size = map (fun i -> float_of_int i /. 2.0) (int_range 1 6) in
         return (release, size))
    in
    return jobs)

let instance_of jobs =
  Instance.make ~platform:uni
    ~jobs:(List.mapi (fun i (release, size) -> mk_job ~id:i ~release ~size ()) jobs)

let prop_srpt_optimal_sum_flow =
  QCheck2.Test.make ~name:"SRPT is optimal for sum-flow (vs brute force)" ~count:60
    small_instance_gen
    (fun jobs ->
      let inst = instance_of jobs in
      let srpt = (metrics List_sched.flat_srpt inst).Metrics.sum_flow in
      let best = brute_force_best inst ~objective:(fun m -> m.Metrics.sum_flow) in
      srpt <= best +. 1e-6)

let prop_fcfs_optimal_max_flow =
  QCheck2.Test.make ~name:"FCFS is optimal for max-flow (vs brute force)" ~count:60
    small_instance_gen
    (fun jobs ->
      let inst = instance_of jobs in
      let fcfs = (metrics List_sched.flat_fcfs inst).Metrics.max_flow in
      let best = brute_force_best inst ~objective:(fun m -> m.Metrics.max_flow) in
      fcfs <= best +. 1e-6)

let prop_srpt_2_competitive_sum_stretch =
  QCheck2.Test.make
    ~name:"SRPT within 2x of best priority order for sum-stretch" ~count:60
    small_instance_gen
    (fun jobs ->
      let inst = instance_of jobs in
      let srpt = (metrics List_sched.flat_srpt inst).Metrics.sum_stretch in
      let best = brute_force_best inst ~objective:(fun m -> m.Metrics.sum_stretch) in
      srpt <= (2.0 *. best) +. 1e-6)

let test_mct_queues_fifo () =
  (* Two machines, speeds 1 and 1.  Three unit jobs at t = 0: MCT places
     J0 on M0, J1 on M1, J2 behind one of them (completion 2). *)
  let p = Platform.uniform ~speeds:[ 1.0; 1.0 ] in
  let inst =
    Instance.make ~platform:p
      ~jobs:[ mk_job (); mk_job ~id:1 (); mk_job ~id:2 () ]
  in
  let sched = run Greedy.mct inst in
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched);
  Alcotest.(check (float 1e-9)) "C0" 1.0 (Schedule.completion_exn sched 0);
  Alcotest.(check (float 1e-9)) "C1" 1.0 (Schedule.completion_exn sched 1);
  Alcotest.(check (float 1e-9)) "C2 queued" 2.0 (Schedule.completion_exn sched 2)

let test_mct_no_preemption_small_job_suffers () =
  (* The paper's criticism: a small job behind a big one on MCT. *)
  let inst =
    Instance.make ~platform:uni
      ~jobs:[ mk_job ~size:100.0 (); mk_job ~id:1 ~release:1.0 ~size:1.0 () ]
  in
  Alcotest.(check (float 1e-9)) "small job waits" 101.0 (Schedule.completion_exn (run Greedy.mct inst) 1)

let test_mct_div_uses_all_machines () =
  (* One job, two machines: MCT-Div runs it on both (rate 2). *)
  let p = Platform.uniform ~speeds:[ 1.0; 1.0 ] in
  let inst = Instance.make ~platform:p ~jobs:[ mk_job ~size:4.0 () ] in
  let sched = run Greedy.mct_div inst in
  Alcotest.(check (float 1e-9)) "parallel rate" 2.0 (Schedule.completion_exn sched 0)

let test_mct_div_fills_gaps_without_touching_commitments () =
  (* J0 occupies the machine for [0, 4]; J1 arrives at 1 and must wait
     (no preemption): C1 = 4 + 2 = 6. *)
  let inst =
    Instance.make ~platform:uni
      ~jobs:[ mk_job ~size:4.0 (); mk_job ~id:1 ~release:1.0 ~size:2.0 () ]
  in
  let sched = run Greedy.mct_div inst in
  Alcotest.(check (float 1e-9)) "C0 untouched" 4.0 (Schedule.completion_exn sched 0);
  Alcotest.(check (float 1e-9)) "C1 appended" 6.0 (Schedule.completion_exn sched 1);
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched)

let test_mct_div_two_machines_staggered () =
  (* M0 and M1 unit speed.  J0 (size 4, both) then J1 at t=1 (size 2,
     both): J0 committed [0,2] on both; J1 fills [2,3] on both. *)
  let p = Platform.uniform ~speeds:[ 1.0; 1.0 ] in
  let inst =
    Instance.make ~platform:p
      ~jobs:[ mk_job ~size:4.0 (); mk_job ~id:1 ~release:1.0 ~size:2.0 () ]
  in
  let sched = run Greedy.mct_div inst in
  Alcotest.(check (float 1e-9)) "C0" 2.0 (Schedule.completion_exn sched 0);
  Alcotest.(check (float 1e-9)) "C1" 3.0 (Schedule.completion_exn sched 1)

let prop_all_heuristics_produce_valid_schedules =
  QCheck2.Test.make ~name:"all classic heuristics yield valid complete schedules"
    ~count:40 small_instance_gen
    (fun jobs ->
      let inst = instance_of jobs in
      List.for_all
        (fun s ->
          let sched = run_flat s inst in
          Schedule.validate sched = [] && Schedule.all_completed sched)
        [ List_sched.flat_fcfs; List_sched.flat_spt; List_sched.flat_srpt;
          List_sched.flat_swpt; List_sched.flat_swrpt;
          Legacy_adapter.flat Greedy.mct; Legacy_adapter.flat Greedy.mct_div ])

let suite =
  ( "sched",
    [ Alcotest.test_case "fcfs order" `Quick test_fcfs_order;
      Alcotest.test_case "srpt preempts" `Quick test_srpt_preempts;
      Alcotest.test_case "spt vs srpt" `Quick test_spt_vs_srpt_difference;
      Alcotest.test_case "swrpt keeps almost-done job" `Quick
        test_swrpt_keeps_almost_done_job;
      Alcotest.test_case "restricted availability" `Quick
        test_restricted_availability_distribution;
      Alcotest.test_case "mct fifo queues" `Quick test_mct_queues_fifo;
      Alcotest.test_case "mct small job suffers" `Quick
        test_mct_no_preemption_small_job_suffers;
      Alcotest.test_case "mct-div parallelism" `Quick test_mct_div_uses_all_machines;
      Alcotest.test_case "mct-div gap filling" `Quick
        test_mct_div_fills_gaps_without_touching_commitments;
      Alcotest.test_case "mct-div staggered" `Quick test_mct_div_two_machines_staggered;
      QCheck_alcotest.to_alcotest prop_srpt_optimal_sum_flow;
      QCheck_alcotest.to_alcotest prop_fcfs_optimal_max_flow;
      QCheck_alcotest.to_alcotest prop_srpt_2_competitive_sum_stretch;
      QCheck_alcotest.to_alcotest prop_all_heuristics_produce_valid_schedules ] )

(* §4.2: with stretch weights (w = 1/W), Smith's ratio rule SWPT orders
   jobs exactly like SPT — the paper notes they have "exactly the same
   behavior".  Verified on random instances by comparing full traces. *)
let prop_swpt_equals_spt =
  QCheck2.Test.make ~name:"SWPT and SPT produce identical schedules" ~count:60
    small_instance_gen
    (fun jobs ->
      let inst = instance_of jobs in
      let c1 = run_flat List_sched.flat_swpt inst
      and c2 = run_flat List_sched.flat_spt inst in
      List.for_all
        (fun j ->
          abs_float (Schedule.completion_exn c1 j -. Schedule.completion_exn c2 j)
          < 1e-9)
        (List.init (Instance.num_jobs inst) Fun.id))

let suite =
  (fst suite, snd suite @ [ QCheck_alcotest.to_alcotest prop_swpt_equals_spt ])

(* ---- rule engine vs legacy resort: the byte-identity contract ----------

   The heap-backed rule engine must be indistinguishable from the
   sort-from-scratch originals: same metrics, same segment list, same
   completion vector, same journal (replans, allocations, sim events) —
   structural equality, i.e. float by float, fault traces included. *)

module Obs = Gripps_obs.Obs
module J = Obs.Journal
module Pool = Gripps_parallel.Pool
module Sweep = Gripps_parallel.Sweep
module W = Gripps_workload

let diff_panel =
  [ (List_sched.Rule_fcfs, Priority.fcfs); (List_sched.Rule_spt, Priority.spt);
    (List_sched.Rule_srpt, Priority.srpt); (List_sched.Rule_swpt, Priority.swpt);
    (List_sched.Rule_swrpt, Priority.swrpt) ]

let run_engine ?faults ?loss (flat, _) inst =
  Sim.run_report_flat ~horizon:1e9 ?faults ?loss
    (List_sched.flat_scheduler flat) inst

let run_oracle ?faults ?loss (flat, rule) inst =
  Sim.run_report ~horizon:1e9 ?faults ?loss
    (Legacy_adapter.resort_scheduler ~name:(List_sched.rule_name flat) ~rule)
    inst

(* A generated workload (restricted databank availability and all), or
   [None] when the Poisson draw comes up empty. *)
let gen_workload seed =
  let rng = Gripps_rng.Splitmix.create seed in
  let c =
    W.Config.make ~sites:2 ~databases:3 ~availability:0.7 ~density:1.0
      ~horizon:6.0 ()
  in
  let r = W.Generator.platform rng c in
  match W.Generator.jobs rng c r with
  | [] -> None
  | jobs -> Some (Instance.make ~platform:r.W.Generator.platform ~jobs)

(* Journal slice of one run, minus wall-clock span records. *)
let sim_journal (r : Sim.report) =
  List.filter (function J.Span_closed _ -> false | _ -> true) r.Sim.journal

let same_run (a : Sim.report) (b : Sim.report) =
  a.Sim.metrics = b.Sim.metrics
  && a.Sim.schedule.Schedule.segments = b.Sim.schedule.Schedule.segments
  && a.Sim.schedule.Schedule.completion = b.Sim.schedule.Schedule.completion
  && a.Sim.lost = b.Sim.lost
  && a.Sim.replans = b.Sim.replans
  && a.Sim.events = b.Sim.events
  && compare (sim_journal a) (sim_journal b) = 0

let journaled f =
  Obs.with_level Obs.Events (fun () ->
      J.clear ();
      Fun.protect ~finally:J.clear f)

let prop_incremental_equals_resort =
  QCheck2.Test.make
    ~name:"heap-backed schedulers byte-identical to resort originals"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 100_000) bool)
    (fun (seed, with_faults) ->
      match gen_workload seed with
      | None -> true
      | Some inst ->
        let machines =
          Array.length (Platform.machines (Instance.platform inst))
        in
        let faults, loss =
          if with_faults then
            ( Some
                (Fault.poisson
                   (Gripps_rng.Splitmix.create (seed + 17))
                   ~mtbf:8.0 ~mttr:1.0 ~machines ~until:40.0),
              Some Fault.Crash )
          else (None, None)
        in
        List.for_all
          (fun rules ->
            journaled (fun () ->
                same_run
                  (run_engine ?faults ?loss rules inst)
                  (run_oracle ?faults ?loss rules inst)))
          diff_panel)

(* Under a 2-domain pool the merged journal stream (one shard per rule)
   must also match the oracle's, shard order and all. *)
let test_incremental_differential_pool () =
  let rec first_workload seed =
    match gen_workload seed with
    | Some i -> i
    | None -> first_workload (seed + 1)
  in
  let inst = first_workload 11 in
  let run_panel run =
    Obs.with_level Obs.Events (fun () ->
        J.clear ();
        let sweep =
          Sweep.of_list diff_panel (fun rules ->
              let r : Sim.report = run rules inst in
              ( r.Sim.metrics,
                r.Sim.schedule.Schedule.segments,
                r.Sim.schedule.Schedule.completion ))
        in
        let rs = Sweep.run ~pool:(Pool.create ~domains:2 ()) sweep in
        let evs =
          List.filter
            (function J.Span_closed _ -> false | _ -> true)
            (J.events ())
        in
        J.clear ();
        (rs, evs))
  in
  let ri, ji = run_panel (fun rules inst -> run_engine rules inst) in
  let rl, jl = run_panel (fun rules inst -> run_oracle rules inst) in
  Alcotest.(check bool) "panel results identical under --jobs 2" true
    (compare ri rl = 0);
  Alcotest.(check bool) "merged journals identical under --jobs 2" true
    (compare ji jl = 0)

let suite =
  ( fst suite,
    snd suite
    @ [ QCheck_alcotest.to_alcotest prop_incremental_equals_resort;
        Alcotest.test_case "incremental differential under 2-domain pool" `Quick
          test_incremental_differential_pool ] )
