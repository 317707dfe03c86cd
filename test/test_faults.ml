(* Fault injection: trace generation, crash/pause loss semantics,
   availability enforcement, solver budget guardrails, and the resilience
   sweep plumbing. *)

open Gripps_model
open Gripps_engine
open Gripps_core
open Gripps_sched
module W = Gripps_workload
module E = Gripps_experiments

let mk_job ?(id = 0) ?(release = 0.0) ?(size = 1.0) ?(databank = 0) () =
  Job.make ~id ~release ~size ~databank

let single_job_inst ?(size = 10.0) () =
  Instance.make ~platform:(Platform.single ~speed:1.0) ~jobs:[ mk_job ~size () ]

let down t m = { Fault.time = t; machine = m; up = false }
let up t m = { Fault.time = t; machine = m; up = true }

(* ---- trace generation ------------------------------------------------- *)

let test_poisson_deterministic () =
  let draw () =
    Fault.poisson
      (Gripps_rng.Splitmix.create 99)
      ~mtbf:50.0 ~mttr:10.0 ~machines:3 ~until:500.0
  in
  let t1 = draw () and t2 = draw () in
  Alcotest.(check bool) "same seed, same trace" true (t1 = t2);
  Alcotest.(check bool) "non-empty at this rate" true (List.length t1 > 0)

let test_poisson_well_formed () =
  let trace =
    Fault.poisson
      (Gripps_rng.Splitmix.create 7)
      ~mtbf:30.0 ~mttr:5.0 ~machines:4 ~until:300.0
  in
  (* Chronological. *)
  let rec sorted = function
    | (a : Fault.edge) :: (b :: _ as rest) -> a.time <= b.time && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "chronological" true (sorted trace);
  (* Per machine: strict down/up alternation starting with a failure, and
     every failure has its repair (no machine stranded down). *)
  for m = 0 to 3 do
    let edges = List.filter (fun (e : Fault.edge) -> e.machine = m) trace in
    let rec alternates expect_up = function
      | [] -> true
      | (e : Fault.edge) :: rest -> e.up = expect_up && alternates (not expect_up) rest
    in
    Alcotest.(check bool) "starts down, alternates" true (alternates false edges);
    Alcotest.(check bool) "even edge count (all repairs present)" true
      (List.length edges mod 2 = 0)
  done

let test_normalize_rejects_bad_edges () =
  Alcotest.check_raises "negative machine"
    (Invalid_argument "Fault.normalize: negative machine id") (fun () ->
      ignore (Fault.normalize [ down 1.0 (-1) ]));
  Alcotest.check_raises "nan date" (Invalid_argument "Fault.normalize: NaN date")
    (fun () -> ignore (Fault.normalize [ down nan 0 ]))

(* ---- loss semantics --------------------------------------------------- *)

(* One unit-speed machine, one 10 MB job at t = 0, outage on [5, 7):
   - crash: the 5 MB processed before the failure are lost, so the job
     restarts from scratch at the repair and completes at 7 + 10 = 17;
   - pause: work survives, 5 MB remain at the repair, completion at 12. *)
let outage = [ down 5.0 0; up 7.0 0 ]

let test_crash_loses_in_flight_work () =
  let r =
    Sim.run_report_flat ~horizon:1e6 ~faults:outage ~loss:Fault.Crash
      List_sched.flat_srpt (single_job_inst ())
  in
  Alcotest.(check (float 1e-9)) "completion" 17.0
    (Schedule.completion_exn r.Sim.schedule 0);
  Alcotest.(check (float 1e-9)) "lost work" 5.0 r.Sim.lost.(0);
  Alcotest.(check (list string)) "valid" [] (Schedule.validate r.Sim.schedule)

let test_pause_preserves_work () =
  let r =
    Sim.run_report_flat ~horizon:1e6 ~faults:outage ~loss:Fault.Pause
      List_sched.flat_srpt (single_job_inst ())
  in
  Alcotest.(check (float 1e-9)) "completion" 12.0
    (Schedule.completion_exn r.Sim.schedule 0);
  Alcotest.(check (float 1e-9)) "nothing lost" 0.0 r.Sim.lost.(0);
  Alcotest.(check (list string)) "valid" [] (Schedule.validate r.Sim.schedule)

let test_static_downtime_equivalent () =
  (* The same outage encoded as a platform downtime window instead of an
     explicit trace. *)
  let platform =
    Platform.with_downtime (Platform.single ~speed:1.0) [ (0, [ (5.0, 7.0) ]) ]
  in
  let inst = Instance.make ~platform ~jobs:[ mk_job ~size:10.0 () ] in
  let r =
    Sim.run_report_flat ~horizon:1e6 ~loss:Fault.Pause List_sched.flat_srpt inst
  in
  Alcotest.(check (float 1e-9)) "pause completion" 12.0
    (Schedule.completion_exn r.Sim.schedule 0)

let test_down_machine_allocation_rejected () =
  let stubborn =
    Sim.flat_stateless "stubborn" (fun st buf ->
        match Sim.active_jobs st with
        | [] -> ()
        | j :: _ ->
          Sim.Plan_buf.begin_machine buf 0;
          Sim.Plan_buf.push_unit_share buf ~job:j)
  in
  Alcotest.check_raises "down machine"
    (Invalid_argument "stubborn: allocation references down machine") (fun () ->
      ignore
        (Sim.run_report_flat ~horizon:1e6
           ~faults:[ down 0.0 0; up 100.0 0 ]
           stubborn (single_job_inst ())))

let test_waiting_for_repair_is_not_stalled () =
  (* Every machine down at the release: the engine must idle until the
     repair rather than raise Stalled. *)
  let r =
    Sim.run_report_flat ~horizon:1e6
      ~faults:[ down 0.0 0; up 50.0 0 ]
      List_sched.flat_srpt (single_job_inst ())
  in
  Alcotest.(check (float 1e-9)) "resumes at repair" 60.0
    (Schedule.completion_exn r.Sim.schedule 0)

let test_fault_unknown_machine_rejected () =
  Alcotest.check_raises "unknown machine in trace"
    (Invalid_argument "SRPT: fault trace references unknown machine") (fun () ->
      ignore
        (Sim.run_report_flat ~horizon:1e6 ~faults:[ down 1.0 5 ]
           List_sched.flat_srpt (single_job_inst ())))

(* ---- conservation under failures (qcheck) ----------------------------- *)

let faulty_gen =
  QCheck2.Gen.(
    let* njobs = int_range 1 6 in
    let* nmach = int_range 1 3 in
    let* speeds = list_size (return nmach) (map float_of_int (int_range 1 3)) in
    let* jobs =
      list_size (return njobs)
        (let* release = map (fun i -> float_of_int i /. 2.0) (int_range 0 8) in
         let* size = map (fun i -> float_of_int i /. 2.0) (int_range 1 6) in
         return (release, size))
    in
    let* fault_seed = int_range 0 1000 in
    let* crash = bool in
    return (speeds, jobs, fault_seed, crash))

let prop_conservation_under_faults =
  QCheck2.Test.make
    ~name:"work conservation and validity under crash and pause faults" ~count:100
    faulty_gen
    (fun (speeds, jobs, fault_seed, crash) ->
      let platform = Platform.uniform ~speeds in
      let inst =
        Instance.make ~platform
          ~jobs:
            (List.mapi (fun i (release, size) -> mk_job ~id:i ~release ~size ()) jobs)
      in
      let faults =
        Fault.poisson
          (Gripps_rng.Splitmix.create fault_seed)
          ~mtbf:6.0 ~mttr:2.0
          ~machines:(Platform.num_machines platform)
          ~until:20.0
      in
      let loss = if crash then Fault.Crash else Fault.Pause in
      let r =
        Sim.run_report_flat ~horizon:1e7 ~faults ~loss List_sched.flat_swrpt inst
      in
      Schedule.validate r.Sim.schedule = []
      && Schedule.all_completed r.Sim.schedule
      && Array.for_all (fun l -> l >= 0.0) r.Sim.lost
      && ((not crash) = Array.for_all (fun l -> l = 0.0) r.Sim.lost || crash)
      (* Delivered work always equals each job's size: lost work is
         re-added to remaining and re-processed, never double-counted. *)
      && List.for_all
           (fun i ->
             let size = (Instance.job inst i).Job.size in
             abs_float (Schedule.work_received r.Sim.schedule i -. size) < 1e-6)
           (List.init (Instance.num_jobs inst) Fun.id))

(* ---- solver budget guardrails ----------------------------------------- *)

let tiny_problem =
  let q = Gripps_numeric.Rat.of_int in
  { Stretch_solver.now = q 0;
    jobs =
      [ { Stretch_solver.jid = 0; release = q 0; size = q 2; remaining = q 2;
          machines = [ 0 ] };
        { Stretch_solver.jid = 1; release = q 1; size = q 3; remaining = q 3;
          machines = [ 0 ] } ];
    machines = [ { Stretch_solver.mid = 0; speed = q 1 } ] }

let zero_budget = { Stretch_solver.max_iters = 0; max_seconds = infinity }

let test_budget_exhaustion_raises () =
  (match Stretch_solver.optimal_max_stretch ~budget:zero_budget tiny_problem with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Stretch_solver.Budget_exhausted { stage; iters; _ } ->
    Alcotest.(check string) "exact stage" "exact" stage;
    Alcotest.(check bool) "counted" true (iters > 0));
  match Stretch_solver.optimal_max_stretch_float ~budget:zero_budget tiny_problem with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Stretch_solver.Budget_exhausted { stage; _ } ->
    Alcotest.(check string) "float stage" "float" stage

let test_generous_budget_harmless () =
  let s = Stretch_solver.optimal_max_stretch tiny_problem in
  let s' =
    Stretch_solver.optimal_max_stretch
      ~budget:{ Stretch_solver.max_iters = 100_000; max_seconds = 60.0 }
      tiny_problem
  in
  Alcotest.(check bool) "same optimum" true (Gripps_numeric.Rat.equal s s')

let budgeted_instance () =
  let rng = Gripps_rng.Splitmix.create 2024 in
  let c =
    W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.0
      ~horizon:10.0 ()
  in
  W.Generator.instance rng c

let test_online_budget_degrades_to_swrpt () =
  (* With a zero budget every replan falls back to greedy SWRPT, so the
     degraded Online run must be indistinguishable from SWRPT — and, in
     particular, it must complete. *)
  let inst = budgeted_instance () in
  let degraded =
    (Sim.run_report_flat ~horizon:1e9 (Online_lp.online_budgeted zero_budget) inst)
      .Sim.schedule
  in
  let swrpt =
    (Sim.run_report_flat ~horizon:1e9 List_sched.flat_swrpt inst).Sim.schedule
  in
  Alcotest.(check bool) "completes" true (Schedule.all_completed degraded);
  for j = 0 to Instance.num_jobs inst - 1 do
    Alcotest.(check (float 1e-9)) "same completions"
      (Schedule.completion_exn swrpt j)
      (Schedule.completion_exn degraded j)
  done

let test_offline_budget_chain_completes () =
  let inst = budgeted_instance () in
  let sched =
    (Sim.run_report_flat ~horizon:1e9 (Offline.scheduler_budgeted zero_budget) inst)
      .Sim.schedule
  in
  Alcotest.(check bool) "completes via greedy fallback" true
    (Schedule.all_completed sched);
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched)

(* ---- resilience sweep plumbing ---------------------------------------- *)

let test_resilience_sweep_smoke () =
  let c =
    W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.0
      ~horizon:10.0 ()
  in
  let panel =
    [ List_sched.flat_swrpt; List_sched.flat_srpt; Greedy.mct ]
  in
  let run () =
    E.Resilience.run ~schedulers:panel ~mtbf_grid:[ 30.0 ] ~mttr:5.0 ~seed:5
      ~instances:2 c
  in
  let s1 = run () in
  Alcotest.(check int) "cells = schedulers x (baseline + levels)" 6
    (List.length s1.E.Resilience.cells);
  List.iter
    (fun (cell : E.Resilience.cell) ->
      Alcotest.(check bool) "finite stretch" true
        (Float.is_finite cell.E.Resilience.mean_max_stretch);
      Alcotest.(check bool) "positive degradation" true
        (cell.E.Resilience.degradation > 0.0))
    s1.E.Resilience.cells;
  let s2 = run () in
  Alcotest.(check bool) "deterministic" true
    (s1.E.Resilience.cells = s2.E.Resilience.cells);
  Alcotest.(check bool) "renders" true
    (String.length (E.Resilience.render s1) > 0)

let test_fault_axis_config () =
  let fa = W.Config.fault_axis ~mtbf:100.0 ~mttr:10.0 () in
  let c = W.Config.with_faults W.Config.default fa in
  Alcotest.(check bool) "describe mentions faults" true
    (String.length (W.Config.describe c) > String.length (W.Config.describe W.Config.default));
  let trace = W.Generator.fault_trace (Gripps_rng.Splitmix.create 3) c ~machines:3 in
  Alcotest.(check bool) "trace drawn" true (List.length trace > 0);
  let none = W.Generator.fault_trace (Gripps_rng.Splitmix.create 3) W.Config.default ~machines:3 in
  Alcotest.(check int) "no axis, no trace" 0 (List.length none);
  Alcotest.check_raises "bad mtbf"
    (Invalid_argument "Config.fault_axis: non-positive mtbf") (fun () ->
      ignore (W.Config.fault_axis ~mtbf:0.0 ~mttr:1.0 ()))

let suite =
  ( "faults",
    [ Alcotest.test_case "poisson deterministic" `Quick test_poisson_deterministic;
      Alcotest.test_case "poisson well-formed" `Quick test_poisson_well_formed;
      Alcotest.test_case "normalize rejects bad edges" `Quick
        test_normalize_rejects_bad_edges;
      Alcotest.test_case "crash loses in-flight work" `Quick
        test_crash_loses_in_flight_work;
      Alcotest.test_case "pause preserves work" `Quick test_pause_preserves_work;
      Alcotest.test_case "static downtime windows" `Quick
        test_static_downtime_equivalent;
      Alcotest.test_case "down machine allocation rejected" `Quick
        test_down_machine_allocation_rejected;
      Alcotest.test_case "waiting for repair is not stalled" `Quick
        test_waiting_for_repair_is_not_stalled;
      Alcotest.test_case "fault trace validated" `Quick
        test_fault_unknown_machine_rejected;
      QCheck_alcotest.to_alcotest prop_conservation_under_faults;
      Alcotest.test_case "budget exhaustion raises" `Quick
        test_budget_exhaustion_raises;
      Alcotest.test_case "generous budget harmless" `Quick
        test_generous_budget_harmless;
      Alcotest.test_case "zero-budget Online degrades to SWRPT" `Quick
        test_online_budget_degrades_to_swrpt;
      Alcotest.test_case "zero-budget Offline completes" `Quick
        test_offline_budget_chain_completes;
      Alcotest.test_case "resilience sweep smoke" `Quick test_resilience_sweep_smoke;
      Alcotest.test_case "fault axis config" `Quick test_fault_axis_config ] )
