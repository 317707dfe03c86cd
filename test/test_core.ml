(* The paper's contribution: exact optimal max-stretch (milestones +
   parametric flow), System (2) refinement, Lemma 1 equivalence, on-line
   LP heuristics, Bender baselines, and the adversarial instances of
   Theorems 1 and 2. *)

open Gripps_model
open Gripps_engine
open Gripps_core
module Q = Gripps_numeric.Rat
module S = Stretch_solver

let q = Q.of_ints
let mk_job ?(id = 0) ?(release = 0.0) ?(size = 1.0) ?(databank = 0) () =
  Job.make ~id ~release ~size ~databank

let uni_machines = [ { S.mid = 0; speed = Q.one } ]

let jspec ?(release = Q.zero) ?rem ~size ~machines jid =
  { S.jid; release; size;
    remaining = Option.value ~default:size rem;
    machines }

(* --- solver unit tests ------------------------------------------------ *)

let test_single_job () =
  let p = { S.now = Q.zero; jobs = [ jspec ~size:(q 2 1) ~machines:[ 0 ] 0 ];
            machines = uni_machines } in
  Alcotest.(check string) "S* = 1" "1" (Q.to_string (S.optimal_max_stretch p))

let test_two_unit_jobs () =
  let p = { S.now = Q.zero;
            jobs = [ jspec ~size:Q.one ~machines:[ 0 ] 0;
                     jspec ~size:Q.one ~machines:[ 0 ] 1 ];
            machines = uni_machines } in
  Alcotest.(check string) "S* = 2" "2" (Q.to_string (S.optimal_max_stretch p))

let test_known_fraction () =
  (* J0 (W=2, r=0), J1 (W=1, r=1) on a unit machine: S* = 3/2. *)
  let p = { S.now = Q.zero;
            jobs = [ jspec ~size:(q 2 1) ~machines:[ 0 ] 0;
                     jspec ~release:Q.one ~size:Q.one ~machines:[ 0 ] 1 ];
            machines = uni_machines } in
  Alcotest.(check string) "S* = 3/2" "3/2" (Q.to_string (S.optimal_max_stretch p))

let test_restricted_machines () =
  let machines = [ { S.mid = 0; speed = Q.one }; { S.mid = 1; speed = Q.one } ] in
  let p = { S.now = Q.zero;
            jobs = [ jspec ~size:Q.one ~machines:[ 0 ] 0;
                     jspec ~size:Q.one ~machines:[ 1 ] 1 ];
            machines } in
  Alcotest.(check string) "independent machines: S* = 1" "1"
    (Q.to_string (S.optimal_max_stretch p))

let test_snapshot_semantics () =
  (* At now = 1 with J0 half done, J1 fresh: same optimum as the full
     off-line problem (1.5) because the past was spent optimally. *)
  let p = { S.now = Q.one;
            jobs = [ { S.jid = 0; release = Q.zero; size = q 2 1; remaining = Q.one;
                       machines = [ 0 ] };
                     jspec ~release:Q.one ~size:Q.one ~machines:[ 0 ] 1 ];
            machines = uni_machines } in
  Alcotest.(check string) "snapshot S* = 3/2" "3/2" (Q.to_string (S.optimal_max_stretch p))

let test_floor_respected () =
  let p = { S.now = Q.zero; jobs = [ jspec ~size:Q.one ~machines:[ 0 ] 0 ];
            machines = uni_machines } in
  Alcotest.(check string) "floor raises the optimum" "5"
    (Q.to_string (S.optimal_max_stretch ~floor:(q 5 1) p))

let test_empty_problem () =
  let p = { S.now = Q.zero; jobs = []; machines = uni_machines } in
  Alcotest.(check string) "no jobs: floor" "0" (Q.to_string (S.optimal_max_stretch p));
  let a = S.solve p in
  Alcotest.(check int) "no work" 0 (List.length a.S.work)

let test_validation () =
  Alcotest.check_raises "no machine" (Invalid_argument "Stretch_solver: no machines")
    (fun () ->
      ignore (S.optimal_max_stretch { S.now = Q.zero; jobs = []; machines = [] }));
  Alcotest.check_raises "orphan job"
    (Invalid_argument "Stretch_solver: pending job with no machine") (fun () ->
      ignore
        (S.optimal_max_stretch
           { S.now = Q.zero; jobs = [ jspec ~size:Q.one ~machines:[] 0 ];
             machines = uni_machines }))

let test_feasibility_boundary () =
  (* The defining property of exactness: feasible at S*, infeasible just
     below. *)
  let p = { S.now = Q.zero;
            jobs = [ jspec ~size:(q 2 1) ~machines:[ 0 ] 0;
                     jspec ~release:Q.one ~size:Q.one ~machines:[ 0 ] 1;
                     jspec ~release:(q 3 2) ~size:(q 1 2) ~machines:[ 0 ] 2 ];
            machines = uni_machines } in
  let s = S.optimal_max_stretch p in
  let eps = q 1 1_000_000_000 in
  Alcotest.(check bool) "feasible at S*" true (S.feasible p ~stretch:s);
  Alcotest.(check bool) "infeasible below S*" false
    (S.feasible p ~stretch:(Q.sub s eps))

(* Random solver properties. *)
let problem_gen =
  QCheck2.Gen.(
    let* njobs = int_range 1 6 in
    let* nmach = int_range 1 3 in
    let* speeds = list_size (return nmach) (int_range 1 4) in
    let* jobs =
      list_size (return njobs)
        (let* rel = int_range 0 8 in
         let* size = int_range 1 8 in
         let* mask = int_range 1 ((1 lsl nmach) - 1) in
         return (rel, size, mask))
    in
    return (speeds, jobs))

let build_problem (speeds, jobs) =
  let machines = List.mapi (fun i s -> { S.mid = i; speed = Q.of_int s }) speeds in
  let nmach = List.length speeds in
  let jobs =
    List.mapi
      (fun jid (rel, size, mask) ->
        let ms =
          List.filter (fun m -> mask land (1 lsl m) <> 0) (List.init nmach Fun.id)
        in
        jspec ~release:(Q.of_int rel) ~size:(Q.of_ints size 2) ~machines:ms jid)
      jobs
  in
  { S.now = Q.zero; jobs; machines }

let prop_boundary_exact =
  QCheck2.Test.make ~name:"S* is the exact feasibility boundary" ~count:80 problem_gen
    (fun spec ->
      let p = build_problem spec in
      let s = S.optimal_max_stretch p in
      let eps = q 1 1_000_000_000 in
      S.feasible p ~stretch:s
      && ((Q.sign s = 0) || not (S.feasible p ~stretch:(Q.sub s eps))))

let prop_float_close_to_exact =
  QCheck2.Test.make ~name:"float pipeline matches exact optimum" ~count:80 problem_gen
    (fun spec ->
      let p = build_problem spec in
      let s = Q.to_float (S.optimal_max_stretch p) in
      let sf = S.optimal_max_stretch_float p in
      abs_float (sf -. s) <= (1e-6 *. Float.max 1.0 s))

let check_assignment p (a : S.assignment) =
  (* Work conservation per job and capacity per (interval, machine). *)
  let by_job = Hashtbl.create 16 and by_cell = Hashtbl.create 16 in
  List.iter
    (fun (jid, t, mid, w) ->
      let add tbl k =
        Hashtbl.replace tbl k
          (Q.add w (Option.value ~default:Q.zero (Hashtbl.find_opt tbl k)))
      in
      add by_job jid;
      add by_cell (t, mid))
    a.S.work;
  List.for_all
    (fun (j : S.job_spec) ->
      Q.sign j.remaining = 0
      || Q.equal j.remaining
           (Option.value ~default:Q.zero (Hashtbl.find_opt by_job j.jid)))
    p.S.jobs
  && Hashtbl.fold
       (fun (t, mid) w ok ->
         let iv = a.S.intervals.(t) in
         let speed = (List.nth p.S.machines mid).S.speed in
         ok && Q.le w (Q.mul (Q.sub iv.S.hi iv.S.lo) speed))
       by_cell true

let prop_witness_valid =
  QCheck2.Test.make ~name:"solver witness conserves work within capacities" ~count:60
    problem_gen
    (fun spec ->
      let p = build_problem spec in
      check_assignment p (S.solve p) && check_assignment p (S.solve ~refine:true p))

let prop_refine_same_objective =
  QCheck2.Test.make ~name:"System (2) refinement keeps S*" ~count:60 problem_gen
    (fun spec ->
      let p = build_problem spec in
      Q.equal (S.solve p).S.s_star (S.solve ~refine:true p).S.s_star)

(* Cross-check System (1) feasibility against the exact-rational simplex
   LP on small instances: the flow formulation and the LP must agree. *)
module Qlp = Gripps_lp.Lp.Rat_lp

let lp_feasible p ~stretch =
  (* Variables: work w_{j,t,i}.  Intervals from the breakpoints at this
     stretch value. *)
  let jobs = Array.of_list p.S.jobs in
  let machines = Array.of_list p.S.machines in
  let deadline j = Q.add jobs.(j).S.release (Q.mul stretch jobs.(j).S.size) in
  let points =
    (p.S.now
     :: (Array.to_list jobs |> List.map (fun (j : S.job_spec) -> Q.max_rat p.S.now j.release)))
    @ List.init (Array.length jobs) deadline
    |> List.filter (fun t -> Q.ge t p.S.now)
    |> List.sort_uniq Q.compare
    |> Array.of_list
  in
  let nints = max 0 (Array.length points - 1) in
  let m = Qlp.create () in
  let vars = Hashtbl.create 64 in
  Array.iteri
    (fun ji (j : S.job_spec) ->
      for t = 0 to nints - 1 do
        if Q.ge points.(t) (Q.max_rat p.S.now j.release)
           && Q.le points.(t + 1) (deadline ji)
        then
          List.iter
            (fun mid -> Hashtbl.replace vars (ji, t, mid) (Qlp.variable m "w"))
            j.machines
      done)
    jobs;
  (* Demands. *)
  Array.iteri
    (fun ji (j : S.job_spec) ->
      let mine =
        Hashtbl.fold
          (fun (ji', _, _) v acc -> if ji' = ji then Qlp.v v :: acc else acc)
          vars []
      in
      if Q.sign j.remaining > 0 && mine = [] then Qlp.eq m (Qlp.const Q.one) (Qlp.const Q.zero)
      else Qlp.eq m (Qlp.sum mine) (Qlp.const j.remaining))
    jobs;
  (* Capacities. *)
  Array.iteri
    (fun mi (mach : S.machine_spec) ->
      for t = 0 to nints - 1 do
        let mine =
          Hashtbl.fold
            (fun (_, t', mid) v acc ->
              if t' = t && mid = mach.S.mid then Qlp.v v :: acc else acc)
            vars []
        in
        if mine <> [] then
          Qlp.le m (Qlp.sum mine)
            (Qlp.const (Q.mul (Q.sub points.(t + 1) points.(t)) mach.S.speed))
      done;
      ignore mi)
    machines;
  Qlp.set_objective m Qlp.Minimize (Qlp.const Q.zero);
  match Qlp.solve m with
  | Qlp.Optimal _ -> true
  | Qlp.Infeasible -> false
  | Qlp.Unbounded -> false

let prop_flow_matches_lp_system1 =
  QCheck2.Test.make ~name:"System (1) via flow agrees with exact LP" ~count:30
    QCheck2.Gen.(pair problem_gen (int_range 0 4))
    (fun (spec, probe) ->
      let p = build_problem spec in
      let s = S.optimal_max_stretch p in
      (* Probe feasibility at several multiples around S*. *)
      let factor = q (2 + probe) 4 (* 1/2 .. 3/2 *) in
      let stretch = Q.mul s factor in
      (* Deadlines before now make both sides trivially infeasible; the LP
         formulation above encodes that with an absent-variable guard. *)
      S.feasible p ~stretch = lp_feasible p ~stretch)

(* --- Lemma 1 equivalence ---------------------------------------------- *)

let test_equivalence_transform () =
  let platform = Platform.uniform ~speeds:[ 1.0; 3.0 ] in
  let inst =
    Instance.make ~platform
      ~jobs:[ mk_job ~size:4.0 (); mk_job ~id:1 ~release:1.0 ~size:2.0 () ]
  in
  Alcotest.(check bool) "uniform" true (Equivalence.is_uniform inst);
  let u = Equivalence.to_uniprocessor inst in
  Alcotest.(check int) "one machine" 1 (Platform.num_machines (Instance.platform u));
  Alcotest.(check (float 1e-12)) "aggregate speed" 4.0
    (Platform.total_speed (Instance.platform u))

let test_equivalence_rejects_restricted () =
  let platform =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
          Machine.make ~id:1 ~speed:1.0 ~databanks:[| true; true |] ]
      ~num_databanks:2
  in
  let inst = Instance.make ~platform ~jobs:[ mk_job () ] in
  Alcotest.(check bool) "not uniform" false (Equivalence.is_uniform inst);
  Alcotest.check_raises "transform refuses"
    (Invalid_argument "Equivalence.to_uniprocessor: restricted availability")
    (fun () -> ignore (Equivalence.to_uniprocessor inst))

let prop_lemma1_equal_completions =
  (* Priority-list schedulers produce identical completion times on the
     uniform platform and on its equivalent uniprocessor. *)
  QCheck2.Test.make ~name:"Lemma 1: heuristic traces match on equivalent uniprocessor"
    ~count:50
    QCheck2.Gen.(
      let* speeds = list_size (int_range 1 3) (int_range 1 4) in
      let* jobs =
        list_size (int_range 1 6)
          (pair (int_range 0 8) (int_range 1 8))
      in
      return (speeds, jobs))
    (fun (speeds, jobs) ->
      let platform = Platform.uniform ~speeds:(List.map float_of_int speeds) in
      let inst =
        Instance.make ~platform
          ~jobs:
            (List.mapi
               (fun i (r, s) ->
                 mk_job ~id:i ~release:(float_of_int r) ~size:(float_of_int s) ())
               jobs)
      in
      let u = Equivalence.to_uniprocessor inst in
      let run sched inst =
        (Sim.run_report_flat ~horizon:1e7 sched inst).Sim.schedule
      in
      List.for_all
        (fun sched ->
          let c1 = run sched inst in
          let c2 = run sched u in
          List.for_all
            (fun j ->
              abs_float (Schedule.completion_exn c1 j -. Schedule.completion_exn c2 j)
              < 1e-6)
            (List.init (Instance.num_jobs inst) Fun.id))
        [ Gripps_sched.List_sched.flat_srpt; Gripps_sched.List_sched.flat_swrpt;
          Gripps_sched.List_sched.flat_fcfs ])

(* --- Offline and on-line heuristics in the simulator ------------------- *)

let restricted_instance () =
  let platform =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; true |];
          Machine.make ~id:1 ~speed:2.0 ~databanks:[| false; true |] ]
      ~num_databanks:2
  in
  Instance.make ~platform
    ~jobs:
      [ mk_job ~size:6.0 ~databank:0 (); mk_job ~id:1 ~release:0.5 ~size:2.0 ~databank:1 ();
        mk_job ~id:2 ~release:1.0 ~size:1.0 ~databank:1 ();
        mk_job ~id:3 ~release:1.5 ~size:4.0 ~databank:0 ();
        mk_job ~id:4 ~release:2.0 ~size:0.5 ~databank:1 () ]

let run ~horizon s inst = (Sim.run_report_flat ~horizon s inst).Sim.schedule

let test_offline_achieves_optimum () =
  let inst = restricted_instance () in
  let opt = Q.to_float (Offline.optimal_max_stretch inst) in
  let sched = run ~horizon:1e7 Offline.scheduler inst in
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched);
  let m = Metrics.of_schedule sched in
  Alcotest.(check bool) "max-stretch = S* (within fp)" true
    (abs_float (m.Metrics.max_stretch -. opt) < 1e-6)

let test_online_achieves_optimum_here () =
  (* On this instance the on-line heuristic attains the off-line optimum
     (as in the paper, it is near-optimal in the vast majority of runs). *)
  let inst = restricted_instance () in
  let opt = Q.to_float (Offline.optimal_max_stretch inst) in
  List.iter
    (fun s ->
      let m = Metrics.of_schedule (run ~horizon:1e7 s inst) in
      Alcotest.(check bool)
        (s.Sim.fname ^ " hits optimum") true
        (m.Metrics.max_stretch < opt +. 1e-6))
    [ Online_lp.online; Online_lp.online_edf ]

let test_refined_improves_sum_stretch () =
  let inst = restricted_instance () in
  let sum s = (Metrics.of_schedule (run ~horizon:1e7 s inst)).Metrics.sum_stretch in
  Alcotest.(check bool) "System (2) helps the sum-stretch" true
    (sum Offline.scheduler_refined < sum Offline.scheduler -. 1e-9)

let instance_gen =
  QCheck2.Gen.(
    let* nmach = int_range 1 3 in
    let* ndb = int_range 1 2 in
    let* machines =
      list_size (return nmach)
        (pair (int_range 1 3) (int_range 1 ((1 lsl ndb) - 1)))
    in
    let* jobs =
      list_size (int_range 1 6)
        (triple (int_range 0 8) (int_range 1 6) (int_range 0 (ndb - 1)))
    in
    return (ndb, machines, jobs))

let build_instance (ndb, machines, jobs) =
  let machines =
    List.mapi
      (fun i (speed, mask) ->
        Machine.make ~id:i ~speed:(float_of_int speed)
          ~databanks:(Array.init ndb (fun d -> mask land (1 lsl d) <> 0)))
      machines
  in
  (* Remap each job's databank to one hosted somewhere. *)
  let hosted =
    List.filter
      (fun d -> List.exists (fun (m : Machine.t) -> Machine.hosts m d) machines)
      (List.init ndb Fun.id)
  in
  match hosted with
  | [] -> None
  | _ ->
    let jobs =
      List.mapi
        (fun i (r, s, d) ->
          let db = List.nth hosted (d mod List.length hosted) in
          mk_job ~id:i ~release:(float_of_int r /. 2.0)
            ~size:(float_of_int s /. 2.0) ~databank:db ())
        jobs
    in
    Some (Instance.make ~platform:(Platform.make ~machines ~num_databanks:ndb) ~jobs)

let prop_offline_lower_bounds_heuristics =
  QCheck2.Test.make
    ~name:"exact S* lower-bounds every heuristic's realized max-stretch" ~count:40
    instance_gen
    (fun spec ->
      match build_instance spec with
      | None -> true
      | Some inst ->
        let opt = Q.to_float (Offline.optimal_max_stretch inst) in
        List.for_all
          (fun s ->
            let m = Metrics.of_schedule (run ~horizon:1e8 s inst) in
            m.Metrics.max_stretch >= opt -. 1e-6 *. Float.max 1.0 opt)
          [ Offline.scheduler; Online_lp.online; Online_lp.online_egdf;
            Gripps_sched.List_sched.resort_scheduler ~name:"SRPT"
              ~rule:Gripps_sched.Priority.srpt;
            Gripps_sched.List_sched.resort_scheduler ~name:"SWRPT"
              ~rule:Gripps_sched.Priority.swrpt;
            Gripps_sched.Greedy.mct; Bender.bender02 ])

let prop_offline_realizes_optimum =
  QCheck2.Test.make ~name:"Offline realizes S* in simulation" ~count:40 instance_gen
    (fun spec ->
      match build_instance spec with
      | None -> true
      | Some inst ->
        let opt = Q.to_float (Offline.optimal_max_stretch inst) in
        let sched = run ~horizon:1e8 Offline.scheduler inst in
        Schedule.validate sched = []
        && (let m = Metrics.of_schedule sched in
            abs_float (m.Metrics.max_stretch -. opt) <= 1e-5 *. Float.max 1.0 opt))

let prop_online_schedulers_valid =
  QCheck2.Test.make ~name:"LP and Bender schedulers produce valid schedules" ~count:30
    instance_gen
    (fun spec ->
      match build_instance spec with
      | None -> true
      | Some inst ->
        List.for_all
          (fun s ->
            let sched = run ~horizon:1e8 s inst in
            Schedule.validate sched = [] && Schedule.all_completed sched)
          [ Online_lp.online; Online_lp.online_edf; Online_lp.online_egdf;
            Online_lp.online_non_optimized; Bender.bender98; Bender.bender02 ])

(* --- Theorem 1: starvation --------------------------------------------- *)

let test_starvation_instance_shape () =
  let inst = Adversary.starvation ~delta:8.0 ~k:5 in
  Alcotest.(check int) "job count" 6 (Instance.num_jobs inst);
  Alcotest.(check (float 0.0)) "delta" 8.0 (Instance.delta inst)

let test_starvation_of_srpt () =
  (* SRPT (sum-based behaviour) starves the long job: its stretch grows
     linearly with k while the optimal max-stretch stays bounded. *)
  let delta = 4.0 and k = 40 in
  let inst = Adversary.starvation ~delta ~k in
  let sched =
    (Sim.run_report_flat ~horizon:1e7 Gripps_sched.List_sched.flat_srpt inst)
      .Sim.schedule
  in
  let completion = Schedule.completion_exn sched 0 in
  (* SRPT serves every unit job first: J_delta finishes last. *)
  Alcotest.(check bool) "long job finishes last" true
    (completion >= float_of_int k);
  let m = Metrics.of_schedule sched in
  let opt = Q.to_float (Offline.optimal_max_stretch inst) in
  Alcotest.(check bool) "max-stretch far above optimal" true
    (m.Metrics.max_stretch > 2.0 *. opt)

(* --- Theorem 2: SWRPT lower bound -------------------------------------- *)

let test_swrpt_parameters () =
  let p = Adversary.swrpt_parameters ~epsilon:0.5 ~l:100 in
  Alcotest.(check (float 1e-12)) "alpha" (1.0 -. (0.5 /. 3.0)) p.Adversary.alpha;
  Alcotest.(check bool) "n >= 2" true (p.Adversary.n >= 2);
  Alcotest.(check bool) "k >= 1" true (p.Adversary.k >= 1);
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Adversary.swrpt_parameters: epsilon outside (0, 1]")
    (fun () -> ignore (Adversary.swrpt_parameters ~epsilon:0.0 ~l:1))

let test_theorem2_simulation () =
  (* Simulate SWRPT and SRPT on the adversarial instance: the sum-stretch
     ratio must exceed 2 - ε (for ε = 0.6 and a long unit tail). *)
  let epsilon = 0.6 and l = 1500 in
  let inst = Adversary.swrpt_instance ~epsilon ~l in
  let sum s =
    (Sim.run_report_flat ~horizon:1e12 s inst).Sim.metrics.Metrics.sum_stretch
  in
  let ratio =
    sum Gripps_sched.List_sched.flat_swrpt /. sum Gripps_sched.List_sched.flat_srpt
  in
  Alcotest.(check bool)
    (Printf.sprintf "SWRPT/SRPT ratio %.4f > 2 - eps" ratio)
    true
    (ratio > 2.0 -. epsilon);
  (* And the analytic closed form agrees with the simulation. *)
  let predicted = Adversary.theorem2_lower_bound ~epsilon ~l in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.4f vs simulated %.4f" predicted ratio)
    true
    (abs_float (predicted -. ratio) < 0.05 *. predicted)

(* --- Bender pseudo-stretch --------------------------------------------- *)

let test_pseudo_stretch () =
  (* Short jobs are divided by sqrt(delta), long ones by delta. *)
  let v_short =
    Bender.pseudo_stretch ~delta:16.0 ~min_size:1.0 ~size:2.0 ~release:0.0 ~now:8.0
  in
  let v_long =
    Bender.pseudo_stretch ~delta:16.0 ~min_size:1.0 ~size:8.0 ~release:0.0 ~now:8.0
  in
  Alcotest.(check (float 1e-9)) "short: (8-0)/4" 2.0 v_short;
  Alcotest.(check (float 1e-9)) "long: (8-0)/16" 0.5 v_long

let suite =
  ( "core",
    [ Alcotest.test_case "solver: single job" `Quick test_single_job;
      Alcotest.test_case "solver: two unit jobs" `Quick test_two_unit_jobs;
      Alcotest.test_case "solver: known fraction" `Quick test_known_fraction;
      Alcotest.test_case "solver: restricted machines" `Quick test_restricted_machines;
      Alcotest.test_case "solver: snapshot semantics" `Quick test_snapshot_semantics;
      Alcotest.test_case "solver: floor" `Quick test_floor_respected;
      Alcotest.test_case "solver: empty problem" `Quick test_empty_problem;
      Alcotest.test_case "solver: validation" `Quick test_validation;
      Alcotest.test_case "solver: boundary exactness" `Quick test_feasibility_boundary;
      QCheck_alcotest.to_alcotest prop_boundary_exact;
      QCheck_alcotest.to_alcotest prop_float_close_to_exact;
      QCheck_alcotest.to_alcotest prop_witness_valid;
      QCheck_alcotest.to_alcotest prop_refine_same_objective;
      QCheck_alcotest.to_alcotest prop_flow_matches_lp_system1;
      Alcotest.test_case "Lemma 1 transform" `Quick test_equivalence_transform;
      Alcotest.test_case "Lemma 1 restricted rejected" `Quick
        test_equivalence_rejects_restricted;
      QCheck_alcotest.to_alcotest prop_lemma1_equal_completions;
      Alcotest.test_case "Offline achieves optimum" `Quick test_offline_achieves_optimum;
      Alcotest.test_case "Online achieves optimum here" `Quick
        test_online_achieves_optimum_here;
      Alcotest.test_case "System (2) improves sum-stretch" `Quick
        test_refined_improves_sum_stretch;
      QCheck_alcotest.to_alcotest prop_offline_lower_bounds_heuristics;
      QCheck_alcotest.to_alcotest prop_offline_realizes_optimum;
      QCheck_alcotest.to_alcotest prop_online_schedulers_valid;
      Alcotest.test_case "Theorem 1 instance" `Quick test_starvation_instance_shape;
      Alcotest.test_case "Theorem 1 starvation of SRPT" `Quick test_starvation_of_srpt;
      Alcotest.test_case "Theorem 2 parameters" `Quick test_swrpt_parameters;
      Alcotest.test_case "Theorem 2 ratio > 2 - eps" `Slow test_theorem2_simulation;
      Alcotest.test_case "Bender pseudo-stretch" `Quick test_pseudo_stretch ] )
