(* Federation invariants.

   The load-bearing property is degeneration: a 1-shard federation must
   be byte-identical — metrics, completion vector, merged journal — to
   the plain single-aggregate run, for every scheduler in the registry.
   Everything the front-end adds (routing, fluid estimates, migration)
   must vanish without a trace when there is nothing to route between.

   The second pillar is conservation: every job is dispatched to exactly
   one shard and either completes or has its crash losses accounted in
   the merged [lost] vector — shards can't drop or duplicate work.

   Finally the pool-differential property of test_parallel extends to
   the federated runner: a federated report is bit-identical at any
   [--jobs] level, for every routing policy, migration included. *)

open Gripps_model
open Gripps_engine
module Fed = Gripps_federation.Federation
module Shard = Gripps_federation.Shard
module Frontend = Gripps_federation.Frontend
module Pool = Gripps_parallel.Pool
module Obs = Gripps_obs.Obs
module J = Obs.Journal
module W = Gripps_workload
module Reg = Gripps_experiments.Sched_registry
module Splitmix = Gripps_rng.Splitmix

(* Every test leaves the global observability singleton as it found it. *)
let sandboxed f () =
  let saved = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level saved;
      J.set_sink None;
      J.clear ())
    f

(* Wall-clock-free journal view (Span_closed carries durations). *)
let sim_events events =
  List.filter (function J.Span_closed _ -> false | _ -> true) events

let config ?(sites = 2) () =
  W.Config.make ~sites ~databases:2 ~availability:0.8 ~density:1.0
    ~horizon:6.0 ()

(* Instance and, with [~faults:true], a fault trace over its arrival
   window drawn from the same stream after it, so conservation runs see
   non-trivial outages. *)
let realize ?(faults = false) ~seed cfg =
  let rng = Splitmix.create seed in
  let inst = W.Generator.instance rng cfg in
  let machines = Platform.num_machines (Instance.platform inst) in
  ( inst,
    if faults then
      Fault.poisson rng ~mtbf:3.0 ~mttr:0.5 ~machines
        ~until:cfg.W.Config.horizon
    else [] )

(* ---- 1-shard degeneration: federation is invisible -------------------- *)

let prop_one_shard_identity =
  QCheck2.Test.make
    ~name:"1-shard federation = plain run (all registry schedulers)" ~count:2
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, _ = realize ~seed (config ()) in
      List.for_all
        (fun (e : Reg.entry) ->
          Obs.with_level Obs.Events (fun () ->
              J.clear ();
              let plain = Sim.run_report_flat e.Reg.scheduler inst in
              let jp = sim_events (J.events ()) in
              J.clear ();
              let fed = Fed.run ~shards:1 ~scheduler:e.Reg.scheduler inst in
              let jf = sim_events (J.events ()) in
              J.clear ();
              compare plain.Sim.metrics fed.Fed.metrics = 0
              && compare plain.Sim.schedule.Schedule.completion fed.Fed.completion = 0
              && compare jp jf = 0
              && fed.Fed.outcome.Frontend.migrations = 0))
        Reg.registry)

(* One pinned case at full size: the federation experiment's first
   instance under SRPT (instance k of seed s is drawn from seed
   s + 1_000_003 k, here s = 42 and k = 0, in its default
   configuration). *)
let test_one_shard_identity_pinned () =
  let module EF = Gripps_experiments.Federation in
  let inst =
    W.Generator.instance (Splitmix.create (42 + (1_000_003 * 0))) EF.default_config
  in
  let sched = Option.get (Reg.find_scheduler "SRPT") in
  let plain = Sim.run_report_flat sched inst in
  let fed = Fed.run ~shards:1 ~scheduler:sched inst in
  Alcotest.(check bool) "metrics identical" true
    (compare plain.Sim.metrics fed.Fed.metrics = 0)

(* The degeneration also holds under an injected fault trace: the
   projection of a global trace onto the single shard is the trace. *)
let test_one_shard_identity_faults () =
  let inst, faults = realize ~faults:true ~seed:42 (config ()) in
  let sched = Gripps_sched.List_sched.flat_swrpt in
  let plain = Sim.run_report_flat ~faults sched inst in
  let fed = Fed.run ~shards:1 ~faults ~scheduler:sched inst in
  Alcotest.(check bool) "metrics identical" true
    (compare plain.Sim.metrics fed.Fed.metrics = 0);
  Alcotest.(check bool) "lost work identical" true
    (compare plain.Sim.lost fed.Fed.lost = 0);
  Alcotest.(check int) "replans identical" plain.Sim.replans fed.Fed.replans;
  Alcotest.(check int) "events identical" plain.Sim.events fed.Fed.events

(* ---- conservation: no job lost, none duplicated ------------------------ *)

let prop_conservation =
  QCheck2.Test.make
    ~name:"every job on exactly one shard; completes with losses accounted"
    ~count:4
    QCheck2.Gen.(
      pair (int_range 1 10_000)
        (pair (int_range 1 3) (oneofl Frontend.all_policies)))
    (fun (seed, (shards, policy)) ->
      let inst, faults = realize ~faults:true ~seed (config ~sites:3 ()) in
      let fed =
        Fed.run ~shards ~policy ~migrate:true ~faults
          ~scheduler:Gripps_sched.List_sched.flat_swrpt inst
      in
      let n = Instance.num_jobs inst in
      let k = Array.length fed.Fed.shards in
      (* Dispatched exactly once: [assignment] names one shard per job,
         and the shard sub-instances partition the global ids (their
         sizes add up to [n], so no job is duplicated or dropped). *)
      let per_shard_sum = Array.fold_left ( + ) 0 fed.Fed.shard_jobs in
      let on_one_shard =
        Array.for_all
          (fun s -> s >= 0 && s < k)
          fed.Fed.outcome.Frontend.assignment
        && per_shard_sum = n
      in
      (* Completed, causally (no completion before the original release),
         with crash losses accounted as finite non-negative Mflop. *)
      let accounted = ref true in
      for j = 0 to n - 1 do
        let c = fed.Fed.completion.(j) and l = fed.Fed.lost.(j) in
        if
          not
            (Float.is_finite c
            && c >= (Instance.job inst j).Job.release
            && Float.is_finite l && l >= 0.0)
        then accounted := false
      done;
      on_one_shard && !accounted
      && compare fed.Fed.metrics (Metrics.of_completion inst ~completion:fed.Fed.completion) = 0)

(* ---- pool differential: --jobs is unobservable ------------------------- *)

let fed_projection (fed : Fed.report) =
  ( fed.Fed.metrics,
    Array.to_list fed.Fed.completion,
    Array.to_list fed.Fed.shard_jobs,
    Array.to_list fed.Fed.outcome.Frontend.assignment,
    fed.Fed.outcome.Frontend.migrations,
    fed.Fed.replans,
    fed.Fed.events )

let prop_pool_differential =
  QCheck2.Test.make
    ~name:"federated run bit-identical at 1 and 4 domains (all policies)"
    ~count:2
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let cfg = config ~sites:3 () in
      let inst, _ = realize ~seed cfg in
      List.for_all
        (fun policy ->
          List.for_all
            (fun migrate ->
              let run pool =
                Obs.with_level Obs.Events (fun () ->
                    J.clear ();
                    let fed =
                      Fed.run ~pool ~shards:3 ~policy ~migrate
                        ~scheduler:Gripps_sched.List_sched.flat_swrpt inst
                    in
                    let j = sim_events (J.events ()) in
                    J.clear ();
                    (fed_projection fed, j))
              in
              let p1, j1 = run Pool.sequential in
              let p4, j4 = run (Pool.create ~domains:4 ()) in
              compare p1 p4 = 0 && compare j1 j4 = 0)
            [ false; true ])
        Frontend.all_policies)

(* ---- shard mechanics --------------------------------------------------- *)

let toy_platform =
  (* 4 machines, 2 databanks; databank 1 only on machines 2-3, so a
     2-shard partition leaves shard 0 unable to host it. *)
  Platform.make ~num_databanks:2
    ~machines:
      [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
        Machine.make ~id:1 ~speed:2.0 ~databanks:[| true; false |];
        Machine.make ~id:2 ~speed:1.0 ~databanks:[| true; true |];
        Machine.make ~id:3 ~speed:4.0 ~databanks:[| false; true |] ]

let test_partition () =
  let shards = Shard.partition toy_platform ~shards:2 in
  Alcotest.(check int) "two shards" 2 (Array.length shards);
  Alcotest.(check (list int)) "shard 0 machines" [ 0; 1 ]
    (Array.to_list shards.(0).Shard.machines);
  Alcotest.(check (list int)) "shard 1 machines" [ 2; 3 ]
    (Array.to_list shards.(1).Shard.machines);
  Alcotest.(check (float 1e-9)) "shard speeds" 3.0 (Shard.speed shards.(0));
  Alcotest.(check (float 1e-9)) "db_speed restricted" 5.0
    (Shard.db_speed shards.(1) 1);
  Alcotest.(check bool) "shard 0 lacks databank 1" false
    (Shard.hosts shards.(0) 1);
  Alcotest.(check bool) "shard 1 hosts databank 1" true
    (Shard.hosts shards.(1) 1);
  (* Uneven split: 4 machines over 3 shards. *)
  let three = Shard.partition toy_platform ~shards:3 in
  Alcotest.(check (list int)) "balanced remainders" [ 1; 1; 2 ]
    (Array.to_list (Array.map Shard.num_machines three));
  List.iter
    (fun bad ->
      match Shard.partition toy_platform ~shards:bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "partition accepted shards=%d" bad)
    [ 0; -1; 5 ]

let test_project_faults () =
  let shards = Shard.partition toy_platform ~shards:2 in
  let trace =
    [ { Fault.time = 1.0; machine = 0; up = false };
      { Fault.time = 2.0; machine = 3; up = false };
      { Fault.time = 3.0; machine = 3; up = true } ]
  in
  Alcotest.(check (list (triple (float 1e-9) int bool)))
    "shard 1 sees its own machines, renumbered"
    [ (2.0, 1, false); (3.0, 1, true) ]
    (List.map
       (fun (e : Fault.edge) -> (e.Fault.time, e.Fault.machine, e.Fault.up))
       (Shard.project_faults shards.(1) trace))

let test_sub_instance_rejects_unhosted () =
  let shards = Shard.partition toy_platform ~shards:2 in
  let inst =
    Instance.make ~platform:toy_platform
      ~jobs:[ Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:1 ]
  in
  match Shard.sub_instance shards.(0) inst [ (0, 0.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sub_instance accepted a job without its databank"

(* ---- front-end policies ------------------------------------------------ *)

let test_policy_names () =
  List.iter
    (fun p ->
      match Frontend.policy_of_string (Frontend.policy_name p) with
      | Some q when q = p -> ()
      | _ -> Alcotest.failf "policy %s does not round-trip" (Frontend.policy_name p))
    Frontend.all_policies;
  Alcotest.(check bool) "mct aliases greedy" true
    (Frontend.policy_of_string "MCT" = Some Frontend.Greedy);
  Alcotest.(check bool) "unknown rejected" true
    (Frontend.policy_of_string "sjf" = None)

let test_eligibility_respected () =
  (* Databank 1 lives only on shard 1: every policy must route its jobs
     there, whatever the load. *)
  let shards = Shard.partition toy_platform ~shards:2 in
  let jobs =
    List.init 6 (fun i ->
        Job.make ~id:i
          ~release:(0.1 *. float_of_int i)
          ~size:5.0
          ~databank:(if i mod 2 = 0 then 1 else 0))
  in
  let inst = Instance.make ~platform:toy_platform ~jobs in
  List.iter
    (fun policy ->
      let o = Frontend.dispatch ~policy shards inst in
      Array.iteri
        (fun j s ->
          if (Instance.job inst j).Job.databank = 1 then
            Alcotest.(check int)
              (Printf.sprintf "%s routes databank-1 job %d to shard 1"
                 (Frontend.policy_name policy) j)
              1 s)
        o.Frontend.assignment)
    Frontend.all_policies

let test_no_migration_without_flag () =
  (* A hand-rolled burst on a uniform platform: both shards eligible
     throughout, so routing is purely load-driven. *)
  let jobs =
    List.init 8 (fun i ->
        Job.make ~id:i ~release:(0.05 *. float_of_int i) ~size:3.0 ~databank:0)
  in
  let burst =
    Instance.make
      ~platform:
        (Platform.make ~num_databanks:1
           ~machines:
             [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true |];
               Machine.make ~id:1 ~speed:1.0 ~databanks:[| true |] ])
      ~jobs
  in
  let shards = Shard.partition (Instance.platform burst) ~shards:2 in
  let off = Frontend.dispatch ~policy:Frontend.Load shards burst in
  Alcotest.(check int) "no migrations without the flag" 0
    off.Frontend.migrations;
  Alcotest.(check bool) "assignment = dispatch" true
    (compare off.Frontend.assignment off.Frontend.dispatch = 0);
  Alcotest.(check bool) "releases untouched" true
    (Array.for_all2
       (fun r (j : Job.t) -> r = j.Job.release)
       off.Frontend.release (Instance.jobs burst))

let test_migration_rebalances () =
  (* Two equal-speed shards, both hosting the databank.  A huge job lands
     on shard 0 first; with migration on, the small jobs that queue up
     behind it must flow toward shard 1 rather than wait, so the final
     assignment is never more imbalanced than the frozen dispatch. *)
  let jobs =
    Job.make ~id:0 ~release:0.0 ~size:100.0 ~databank:0
    :: List.init 6 (fun i ->
           Job.make ~id:(i + 1) ~release:0.01 ~size:1.0 ~databank:0)
  in
  let platform =
    Platform.make ~num_databanks:1
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true |];
          Machine.make ~id:1 ~speed:1.0 ~databanks:[| true |] ]
  in
  let inst = Instance.make ~platform ~jobs in
  let shards = Shard.partition platform ~shards:2 in
  let off = Frontend.dispatch ~migrate:false ~policy:Frontend.Load shards inst in
  let on = Frontend.dispatch ~migrate:true ~policy:Frontend.Load shards inst in
  let backlog o s =
    (* Final fluid backlog proxy: total size assigned to shard [s]. *)
    let acc = ref 0.0 in
    Array.iteri
      (fun j s' ->
        if s' = s then acc := !acc +. (Instance.job inst j).Job.size)
      o.Frontend.assignment;
    !acc
  in
  let spread o = Float.abs (backlog o 0 -. backlog o 1) in
  Alcotest.(check bool) "migration narrows the assignment imbalance" true
    (spread on <= spread off);
  (* A migrated job's effective release is the migration date, never
     earlier than its original release. *)
  Array.iteri
    (fun j r ->
      Alcotest.(check bool)
        (Printf.sprintf "release of job %d is causal" j)
        true
        (r >= (Instance.job inst j).Job.release))
    on.Frontend.release;
  (* End-to-end: both modes still complete everything with sane metrics. *)
  let run migrate =
    Fed.run ~shards:2 ~policy:Frontend.Load ~migrate
      ~scheduler:Gripps_sched.List_sched.flat_swrpt inst
  in
  let fed_off = run false and fed_on = run true in
  Alcotest.(check bool) "makespans finite" true
    (Float.is_finite fed_off.Fed.metrics.Metrics.makespan
    && Float.is_finite fed_on.Fed.metrics.Metrics.makespan);
  Alcotest.(check bool) "migration helps the loaded burst" true
    (fed_on.Fed.metrics.Metrics.makespan
    <= fed_off.Fed.metrics.Metrics.makespan +. 1e-9)

(* ---- empty shards ------------------------------------------------------ *)

let test_empty_shard_ok () =
  (* One job, four shards: three shards simulate empty sub-instances. *)
  let platform =
    Platform.make ~num_databanks:1
      ~machines:
        (List.init 4 (fun i ->
             Machine.make ~id:i ~speed:1.0 ~databanks:[| true |]))
  in
  let inst =
    Instance.make ~platform
      ~jobs:[ Job.make ~id:0 ~release:0.5 ~size:2.0 ~databank:0 ]
  in
  let fed =
    Fed.run ~shards:4 ~scheduler:Gripps_sched.List_sched.flat_swrpt inst
  in
  Alcotest.(check int) "one busy shard" 1
    (Array.fold_left ( + ) 0 fed.Fed.shard_jobs);
  Alcotest.(check (float 1e-9)) "completion on the lone shard" 2.5
    fed.Fed.completion.(0)

let suite =
  ( "federation",
    [ QCheck_alcotest.to_alcotest prop_one_shard_identity;
      Alcotest.test_case "1-shard identity, pinned experiment case" `Quick
        (sandboxed test_one_shard_identity_pinned);
      Alcotest.test_case "1-shard identity under faults" `Quick
        (sandboxed test_one_shard_identity_faults);
      QCheck_alcotest.to_alcotest prop_conservation;
      QCheck_alcotest.to_alcotest prop_pool_differential;
      Alcotest.test_case "partition mechanics" `Quick (sandboxed test_partition);
      Alcotest.test_case "fault projection" `Quick
        (sandboxed test_project_faults);
      Alcotest.test_case "sub_instance rejects unhosted databank" `Quick
        (sandboxed test_sub_instance_rejects_unhosted);
      Alcotest.test_case "policy name round-trip" `Quick
        (sandboxed test_policy_names);
      Alcotest.test_case "eligibility respected by every policy" `Quick
        (sandboxed test_eligibility_respected);
      Alcotest.test_case "no migration without the flag" `Quick
        (sandboxed test_no_migration_without_flag);
      Alcotest.test_case "migration rebalances a loaded burst" `Quick
        (sandboxed test_migration_rebalances);
      Alcotest.test_case "empty shards simulate cleanly" `Quick
        (sandboxed test_empty_shard_ok) ] )
