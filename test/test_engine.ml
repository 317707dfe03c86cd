(* Engine: fluid semantics, event batching, plan horizons, invariant
   enforcement, and conservation laws under a random work-conserving
   scheduler. *)

open Gripps_model
open Gripps_engine

let mk_job ?(id = 0) ?(release = 0.0) ?(size = 1.0) ?(databank = 0) () =
  Job.make ~id ~release ~size ~databank

let run_all scheduler inst =
  (Sim.run_report_flat ~horizon:1e7 scheduler inst).Sim.schedule

(* Test schedulers state their plan as a list: [(machine, [(job, share)])]
   runs in canonical order, plus an optional horizon. *)
let list_scheduler name f =
  Sim.flat_stateless name (fun st buf ->
      let alloc, horizon = f st in
      Sim.Plan_buf.clear buf;
      List.iter
        (fun (m, shares) ->
          Sim.Plan_buf.begin_machine buf m;
          List.iter (fun (job, share) -> Sim.Plan_buf.push_share buf ~job ~share) shares)
        alloc;
      Option.iter (Sim.Plan_buf.set_horizon buf) horizon)

(* A scheduler that runs every active job on every capable machine with
   equal shares: the "processor sharing" reference. *)
let fair_share =
  list_scheduler "fair-share" (fun st ->
      let inst = Sim.instance st in
      let platform = Instance.platform inst in
      let active = Sim.active_jobs st in
      let allocation =
        Array.to_list (Platform.machines platform)
        |> List.filter_map (fun (m : Machine.t) ->
               let mine =
                 List.filter
                   (fun j -> Machine.hosts m (Instance.job inst j).Job.databank)
                   active
               in
               match mine with
               | [] -> None
               | _ ->
                 let share = 1.0 /. float_of_int (List.length mine) in
                 Some (m.Machine.id, List.map (fun j -> (j, share)) mine))
      in
      (allocation, None))

let test_single_job () =
  let inst =
    Instance.make ~platform:(Platform.single ~speed:2.0) ~jobs:[ mk_job ~size:6.0 () ]
  in
  let sched = run_all fair_share inst in
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched);
  Alcotest.(check (float 1e-9)) "completion" 3.0 (Schedule.completion_exn sched 0)

let test_two_jobs_sharing () =
  (* Two unit jobs released together on a unit machine under fair sharing:
     both complete at t = 2. *)
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~size:1.0 () ]
  in
  let sched = run_all fair_share inst in
  Alcotest.(check (float 1e-9)) "C0" 2.0 (Schedule.completion_exn sched 0);
  Alcotest.(check (float 1e-9)) "C1" 2.0 (Schedule.completion_exn sched 1)

let test_arrival_preemption_point () =
  (* Job 0 alone until t = 1, then shares with job 1: C0 = 1 + 1 = 2 at
     half rate -> remaining 1 takes 2s -> C0 = 3; C1: 1 unit at half rate
     then full rate: worked 1 by t = 3, remaining 0... compute: between 1
     and 3 each gets 1 unit; job1 size 2 finishes its second unit alone by
     t = 4. *)
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:2.0 (); mk_job ~id:1 ~release:1.0 ~size:2.0 () ]
  in
  let sched = run_all fair_share inst in
  Alcotest.(check (float 1e-9)) "C0" 3.0 (Schedule.completion_exn sched 0);
  Alcotest.(check (float 1e-9)) "C1" 4.0 (Schedule.completion_exn sched 1);
  Alcotest.(check (list string)) "valid" [] (Schedule.validate sched)

let test_simultaneous_arrivals_batched () =
  let batches = ref [] in
  let recorder =
    list_scheduler "recorder" (fun st ->
        let arrivals =
          List.filter_map
            (fun i ->
              match Sim.Events.kind st i with
              | `Arrival -> Some (Sim.Events.subject st i)
              | `Completion | `Boundary | `Failure | `Recovery -> None)
            (List.init (Sim.Events.count st) Fun.id)
        in
        if arrivals <> [] then batches := arrivals :: !batches;
        (* Run the lowest-id active job alone. *)
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ -> ([ (0, [ (j, 1.0) ]) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:
        [ mk_job ~size:1.0 (); mk_job ~id:1 ~size:1.0 ();
          mk_job ~id:2 ~release:5.0 ~size:1.0 () ]
  in
  ignore (run_all recorder inst);
  Alcotest.(check (list (list int))) "batches" [ [ 0; 1 ]; [ 2 ] ] (List.rev !batches)

let test_boundary_events () =
  (* A scheduler that only commits half time-quanta of 0.25 s. *)
  let quantum =
    list_scheduler "quantum" (fun st ->
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ ->
          ([ (0, [ (j, 1.0) ]) ], Some (Sim.now st +. 0.25)))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0) ~jobs:[ mk_job ~size:1.0 () ]
  in
  let sched = run_all quantum inst in
  Alcotest.(check (float 1e-9)) "completion across quanta" 1.0
    (Schedule.completion_exn sched 0)

let test_idle_gap_then_arrival () =
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~release:10.0 ~size:1.0 () ]
  in
  let sched = run_all fair_share inst in
  Alcotest.(check (float 1e-9)) "gap respected" 11.0 (Schedule.completion_exn sched 1)

let test_stalled_detection () =
  let lazy_sched = list_scheduler "lazy" (fun _st -> ([], None)) in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0) ~jobs:[ mk_job ~size:1.0 () ]
  in
  match run_all lazy_sched inst with
  | _ -> Alcotest.fail "expected Stalled"
  | exception Sim.Stalled { pending; _ } ->
    Alcotest.(check (list int)) "pending job" [ 0 ] pending

let test_rejects_oversubscription () =
  let bad =
    list_scheduler "bad" (fun st ->
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ -> ([ (0, [ (j, 0.7); (j, 0.7) ]) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0) ~jobs:[ mk_job ~size:1.0 () ]
  in
  Alcotest.check_raises "oversubscribed" (Invalid_argument "bad: machine oversubscribed")
    (fun () -> ignore (run_all bad inst))

let test_rejects_wrong_databank () =
  let p =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
          Machine.make ~id:1 ~speed:1.0 ~databanks:[| false; true |] ]
      ~num_databanks:2
  in
  let bad =
    list_scheduler "bad-db" (fun st ->
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ -> ([ (1, [ (j, 1.0) ]) ], None))
  in
  let inst = Instance.make ~platform:p ~jobs:[ mk_job ~size:1.0 ~databank:0 () ] in
  Alcotest.check_raises "missing databank"
    (Invalid_argument "bad-db: job allocated to machine missing its databank")
    (fun () -> ignore (run_all bad inst))

(* Remaining invalid-allocation rejections: each guard of the engine's
   [check_allocation] has a test pinning its message. *)

let one_job_inst () =
  Instance.make ~platform:(Platform.single ~speed:1.0) ~jobs:[ mk_job ~size:1.0 () ]

let reject_test ?horizon name make_alloc expected =
  let bad = list_scheduler name (fun st -> (make_alloc st, horizon)) in
  Alcotest.check_raises expected (Invalid_argument (name ^ ": " ^ expected))
    (fun () -> ignore (run_all bad (one_job_inst ())))

let test_rejects_unknown_machine () =
  reject_test "bad-m" (fun _ -> [ (3, [ (0, 1.0) ]) ]) "allocation references unknown machine"

let test_rejects_unknown_job () =
  reject_test "bad-j" (fun _ -> [ (0, [ (9, 1.0) ]) ]) "allocation references unknown job"

let test_rejects_nonpositive_share () =
  reject_test "bad-s" (fun _ -> [ (0, [ (0, 0.0) ]) ]) "non-positive share"

let test_rejects_nan_share () =
  (* NaN fails every ordered comparison, so only a negated test sees it:
     the run sum is NaN too, which slips past the oversubscription test. *)
  reject_test "bad-nan" (fun _ -> [ (0, [ (0, nan) ]) ]) "non-positive share"

let test_rejects_nan_horizon () =
  reject_test ~horizon:nan "bad-h" (fun _ -> [ (0, [ (0, 1.0) ]) ])
    "plan horizon not in the future"

let test_rejects_duplicate_entry () =
  (* Two sub-unit shares for the same job on one machine: the sum fits, so
     only the duplicate-entry guard can catch it. *)
  reject_test "bad-dup"
    (fun _ -> [ (0, [ (0, 0.3); (0, 0.3) ]) ])
    "duplicate entry for job 0 on machine 0"

let test_rejects_negative_share () =
  reject_test "bad-neg"
    (fun _ -> [ (0, [ (0, -0.5) ]) ])
    "negative share -0.5 for job 0 on machine 0"

let test_duplicate_across_machines_ok () =
  (* The duplicate guard is per machine: the same job may legitimately run
     on several machines at once. *)
  let spread =
    list_scheduler "spread" (fun st ->
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ ->
          ([ (0, [ (j, 1.0) ]); (1, [ (j, 1.0) ]) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.uniform ~speeds:[ 1.0; 1.0 ])
      ~jobs:[ mk_job ~size:2.0 () ]
  in
  let sched = run_all spread inst in
  Alcotest.(check (float 1e-9)) "runs at combined speed" 1.0
    (Schedule.completion_exn sched 0)

let test_dirty_set_is_previous_support () =
  (* During a callback the kernel's [rated] is the support of the plan
     the previous invocation installed — the invariant the rule engine's
     re-keying relies on. *)
  let dirt = ref [] in
  let spy =
    list_scheduler "support-spy" (fun st ->
        let rated = (Sim.kernel st).Kernel.rated in
        dirt := List.sort compare (Gripps_collections.Vec.to_list rated) :: !dirt;
        match Sim.active_jobs st with
        | [] -> ([], None)
        | js -> ([ (0, List.map (fun j -> (j, 0.5)) js) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~release:0.5 ~size:1.0 () ]
  in
  ignore (run_all spy inst);
  (* Arrival of 0, arrival of 1, completion of 0 — the final completion
     batch ends the run without a replan.  First call: nothing planned
     yet.  Second call (job 1's arrival): the support of the first plan,
     i.e. job 0.  Third call (job 0's completion): both jobs shared the
     machine. *)
  match List.rev !dirt with
  | [ []; [ 0 ]; [ 0; 1 ] ] -> ()
  | _ -> Alcotest.fail "unexpected dirty sets"

let test_rejects_unreleased_job () =
  let bad =
    list_scheduler "early" (fun _st ->
        ([ (0, [ (1, 1.0) ]) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~release:10.0 ~size:1.0 () ]
  in
  Alcotest.check_raises "unreleased"
    (Invalid_argument "early: job allocated before release") (fun () ->
      ignore (run_all bad inst))

let test_rejects_completed_job () =
  (* Keep allocating job 0 after it completes at t = 1. *)
  let bad =
    list_scheduler "zombie" (fun _st ->
        ([ (0, [ (0, 1.0) ]) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~size:5.0 () ]
  in
  Alcotest.check_raises "completed"
    (Invalid_argument "zombie: completed job allocated") (fun () ->
      ignore (run_all bad inst))

let test_rejects_stale_horizon () =
  let bad =
    list_scheduler "stale" (fun st ->
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ ->
          ([ (0, [ (j, 1.0) ]) ], Some (Sim.now st)))
  in
  Alcotest.check_raises "stale horizon"
    (Invalid_argument "stale: plan horizon not in the future") (fun () ->
      ignore (run_all bad (one_job_inst ())))

let test_remaining_unreleased_hidden () =
  let spy_ok = ref true in
  let spy =
    list_scheduler "spy" (fun st ->
        (match Sim.remaining st 1 with
         | _ -> if not (Sim.is_released st 1) then spy_ok := false
         | exception Invalid_argument _ -> ());
        match Sim.active_jobs st with
        | [] -> ([], None)
        | j :: _ -> ([ (0, [ (j, 1.0) ]) ], None))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~release:100.0 ~size:1.0 () ]
  in
  ignore (run_all spy inst);
  Alcotest.(check bool) "unreleased job invisible" true !spy_ok

(* Conservation property on random instances under fair sharing. *)
let instance_gen =
  QCheck2.Gen.(
    let* njobs = int_range 1 8 in
    let* nmach = int_range 1 3 in
    let* speeds = list_size (return nmach) (map (fun i -> float_of_int i) (int_range 1 4)) in
    let* jobs =
      list_size (return njobs)
        (let* release = map (fun i -> float_of_int i /. 2.0) (int_range 0 10) in
         let* size = map (fun i -> float_of_int i /. 2.0) (int_range 1 8) in
         return (release, size))
    in
    return (speeds, jobs))

let prop_conservation =
  QCheck2.Test.make ~name:"work conservation and validity under fair sharing"
    ~count:100 instance_gen
    (fun (speeds, jobs) ->
      let platform = Platform.uniform ~speeds in
      let inst =
        Instance.make ~platform
          ~jobs:
            (List.mapi
               (fun i (release, size) -> mk_job ~id:i ~release ~size ())
               jobs)
      in
      let sched = run_all fair_share inst in
      Schedule.validate sched = []
      && Schedule.all_completed sched
      && List.for_all
           (fun i ->
             let size = (Instance.job inst i).Job.size in
             abs_float (Schedule.work_received sched i -. size) < 1e-6)
           (List.init (Instance.num_jobs inst) Fun.id))

let suite =
  ( "engine",
    [ Alcotest.test_case "single job" `Quick test_single_job;
      Alcotest.test_case "two jobs sharing" `Quick test_two_jobs_sharing;
      Alcotest.test_case "arrival preemption" `Quick test_arrival_preemption_point;
      Alcotest.test_case "simultaneous arrivals batched" `Quick
        test_simultaneous_arrivals_batched;
      Alcotest.test_case "plan boundaries" `Quick test_boundary_events;
      Alcotest.test_case "idle gap" `Quick test_idle_gap_then_arrival;
      Alcotest.test_case "stalled detection" `Quick test_stalled_detection;
      Alcotest.test_case "rejects oversubscription" `Quick test_rejects_oversubscription;
      Alcotest.test_case "rejects wrong databank" `Quick test_rejects_wrong_databank;
      Alcotest.test_case "rejects unknown machine" `Quick test_rejects_unknown_machine;
      Alcotest.test_case "rejects unknown job" `Quick test_rejects_unknown_job;
      Alcotest.test_case "rejects non-positive share" `Quick
        test_rejects_nonpositive_share;
      Alcotest.test_case "rejects NaN share" `Quick test_rejects_nan_share;
      Alcotest.test_case "rejects NaN horizon" `Quick test_rejects_nan_horizon;
      Alcotest.test_case "rejects duplicate entry" `Quick
        test_rejects_duplicate_entry;
      Alcotest.test_case "rejects negative share" `Quick
        test_rejects_negative_share;
      Alcotest.test_case "same job on two machines ok" `Quick
        test_duplicate_across_machines_ok;
      Alcotest.test_case "dirty set = previous support" `Quick
        test_dirty_set_is_previous_support;
      Alcotest.test_case "rejects unreleased job" `Quick test_rejects_unreleased_job;
      Alcotest.test_case "rejects completed job" `Quick test_rejects_completed_job;
      Alcotest.test_case "rejects stale horizon" `Quick test_rejects_stale_horizon;
      Alcotest.test_case "unreleased jobs hidden" `Quick test_remaining_unreleased_hidden;
      QCheck_alcotest.to_alcotest prop_conservation ] )

(* Failure injection: the simulation guard fires when a scheduler drags
   the simulation past the given date. *)
let test_horizon_guard () =
  (* A "procrastinating" scheduler: always idles until a far-future
     boundary before working. *)
  let lazy_boundary =
    list_scheduler "procrastinate" (fun st ->
        ([], Some (Sim.now st +. 1000.0)))
  in
  let inst =
    Instance.make ~platform:(Platform.single ~speed:1.0) ~jobs:[ mk_job ~size:1.0 () ]
  in
  match Sim.run_report_flat ~horizon:500.0 lazy_boundary inst with
  | _ -> Alcotest.fail "expected Horizon_exceeded"
  | exception Sim.Horizon_exceeded { scheduler; guard; pending; _ } ->
    Alcotest.(check string) "scheduler name" "procrastinate" scheduler;
    Alcotest.(check (float 0.0)) "guard value" 500.0 guard;
    Alcotest.(check (list int)) "pending jobs" [ 0 ] pending

(* Determinism: identical runs produce identical schedules. *)
let test_run_deterministic () =
  let inst =
    Instance.make ~platform:(Platform.uniform ~speeds:[ 1.0; 2.0 ])
      ~jobs:
        [ mk_job ~size:3.0 (); mk_job ~id:1 ~release:0.5 ~size:1.5 ();
          mk_job ~id:2 ~release:1.0 ~size:2.5 () ]
  in
  let s1 = run_all fair_share inst and s2 = run_all fair_share inst in
  List.iter
    (fun j ->
      Alcotest.(check (float 0.0)) "identical completions"
        (Schedule.completion_exn s1 j) (Schedule.completion_exn s2 j))
    [ 0; 1; 2 ]

let suite =
  ( fst suite,
    snd suite
    @ [ Alcotest.test_case "horizon guard" `Quick test_horizon_guard;
        Alcotest.test_case "deterministic runs" `Quick test_run_deterministic ] )
