(* The first-class objective layer: eval's ℓ_p laws (exactness at p = 1
   and p = ∞, monotone convergence, the n^(1/p) gap bound), bit-identity
   of the rebuilt Metrics.t with the historical five-accumulator loop,
   the typed Incomplete signal, per-user fairness, the redesigned
   registry (predicate selection, case-insensitive lookup, panels), the
   size-blind EQUI/RR schedulers, and the objective-parameterized
   tables. *)

open Gripps_model
module E = Gripps_experiments
module W = Gripps_workload
module Sim = Gripps_engine.Sim

(* ---- a completed run to evaluate objectives on ------------------------ *)

let completed_instance ?(users = 1) seed =
  let c =
    W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.5
      ~horizon:8.0 ~users ()
  in
  let inst = W.Generator.instance (Gripps_rng.Splitmix.create seed) c in
  let sched =
    (Sim.run_report_flat ~horizon:1e9 Gripps_sched.List_sched.flat_srpt inst)
      .Sim.schedule
  in
  let completion =
    Array.init (Instance.num_jobs inst) (fun j ->
        Option.get sched.Schedule.completion.(j))
  in
  (inst, completion)

(* ---- ℓ_p laws ---------------------------------------------------------- *)

let prop_lp_limits_exact =
  QCheck2.Test.make ~name:"Lp_stretch exact at p = 1 and p = inf" ~count:30
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, completion = completed_instance seed in
      let m = Metrics.of_completion inst ~completion in
      Metrics.eval (Metrics.Lp_stretch 1.0) inst ~completion
        = m.Metrics.sum_stretch
      && Metrics.eval (Metrics.Lp_stretch infinity) inst ~completion
         = m.Metrics.max_stretch
      && Metrics.eval (Metrics.Lp_flow 1.0) inst ~completion
         = m.Metrics.sum_flow
      && Metrics.eval (Metrics.Lp_flow infinity) inst ~completion
         = m.Metrics.max_flow)

let prop_lp_monotone =
  QCheck2.Test.make
    ~name:"Lp_stretch monotone non-increasing in p, converging to the max"
    ~count:30
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, completion = completed_instance seed in
      let ps = [ 1.0; 1.5; 2.0; 3.0; 8.0; 32.0; infinity ] in
      let vs =
        List.map (fun p -> Metrics.eval (Metrics.Lp_stretch p) inst ~completion) ps
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) ->
          (* tiny relative slack for the float power chain *)
          b <= a +. (1e-9 *. Float.max 1.0 a) && non_increasing rest
        | _ -> true
      in
      non_increasing vs)

let prop_lp_gap_bound =
  QCheck2.Test.make
    ~name:"max <= Lp_stretch p <= max * n^(1/p)" ~count:30
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 2 16))
    (fun (seed, p_num) ->
      let p = float_of_int p_num in
      let inst, completion = completed_instance seed in
      let n = float_of_int (Instance.num_jobs inst) in
      let mx = Metrics.eval Metrics.Max_stretch inst ~completion in
      let lp = Metrics.eval (Metrics.Lp_stretch p) inst ~completion in
      let slack = 1e-9 *. Float.max 1.0 mx in
      lp >= mx -. slack && lp <= (mx *. (n ** (1.0 /. p))) +. slack)

(* ---- bit-identity with the historical accumulator loop ----------------- *)

(* The pre-objective [of_completion]: one loop, five accumulators, in
   this exact order.  The refactored per-field loops must reproduce it
   bit for bit. *)
let legacy_of_completion inst ~completion =
  let n = Instance.num_jobs inst in
  if n = 0 then (0.0, 0.0, 0.0, 0.0, 0.0)
  else begin
    let makespan = ref 0.0 and max_flow = ref 0.0 and sum_flow = ref 0.0 in
    let max_stretch = ref 0.0 and sum_stretch = ref 0.0 in
    for j = 0 to n - 1 do
      let f = Metrics.flow inst ~completion j in
      let s = Metrics.stretch inst ~completion j in
      makespan := Float.max !makespan completion.(j);
      max_flow := Float.max !max_flow f;
      sum_flow := !sum_flow +. f;
      max_stretch := Float.max !max_stretch s;
      sum_stretch := !sum_stretch +. s
    done;
    (!makespan, !max_flow, !sum_flow, !max_stretch, !sum_stretch)
  end

let prop_bit_identical_to_legacy =
  QCheck2.Test.make
    ~name:"of_completion bit-identical to the historical single loop"
    ~count:50
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, completion = completed_instance seed in
      let m = Metrics.of_completion inst ~completion in
      let mk, mf, sf, ms, ss = legacy_of_completion inst ~completion in
      m.Metrics.makespan = mk && m.Metrics.max_flow = mf
      && m.Metrics.sum_flow = sf && m.Metrics.max_stretch = ms
      && m.Metrics.sum_stretch = ss)

(* ---- typed Incomplete -------------------------------------------------- *)

let one_machine_platform =
  Platform.make
    ~machines:[ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true |] ]
    ~num_databanks:1

let test_incomplete_is_typed () =
  let inst =
    Instance.make ~platform:one_machine_platform
      ~jobs:
        [ Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:0;
          Job.make ~id:1 ~release:0.0 ~size:1.0 ~databank:0 ]
  in
  let sched =
    Schedule.make ~instance:inst ~segments:[]
      ~completion:[| Some 1.0; None |]
  in
  Alcotest.check_raises "job 1 never completed" (Metrics.Incomplete 1)
    (fun () -> ignore (Metrics.of_schedule sched))

(* ---- objective parsing and naming -------------------------------------- *)

let test_objective_of_string () =
  let check s expect =
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" s)
      true
      (Metrics.objective_of_string s = expect)
  in
  check "max" (Some Metrics.Max_stretch);
  check "Max-Stretch" (Some Metrics.Max_stretch);
  check "sum" (Some Metrics.Sum_stretch);
  check "makespan" (Some Metrics.Makespan);
  check "max-flow" (Some Metrics.Max_flow);
  check "sum-flow" (Some Metrics.Sum_flow);
  check "user" (Some Metrics.Per_user_max_stretch);
  check "p1" (Some (Metrics.Lp_stretch 1.0));
  check "p2" (Some (Metrics.Lp_stretch 2.0));
  check "P2" (Some (Metrics.Lp_stretch 2.0));
  check "pinf" (Some (Metrics.Lp_stretch infinity));
  check "fp2" (Some (Metrics.Lp_flow 2.0));
  check "fpinf" (Some (Metrics.Lp_flow infinity));
  check "p0.5" None;
  check "p" None;
  check "bogus" None

let test_objective_names () =
  let check o s =
    Alcotest.(check string) s s (Metrics.objective_name o)
  in
  check Metrics.Max_stretch "max-stretch";
  check Metrics.Sum_stretch "sum-stretch";
  check (Metrics.Lp_stretch 2.0) "l2-stretch";
  check (Metrics.Lp_stretch infinity) "linf-stretch";
  check (Metrics.Lp_flow 3.0) "l3-flow";
  check Metrics.Per_user_max_stretch "user-max-stretch"

let test_eval_rejects_bad_p () =
  Alcotest.check_raises "p < 1 rejected"
    (Invalid_argument "Metrics.eval: Lp_stretch order must be >= 1")
    (fun () ->
      let inst, completion = completed_instance 1 in
      ignore (Metrics.eval (Metrics.Lp_stretch 0.5) inst ~completion))

(* ---- per-user fairness ------------------------------------------------- *)

let test_per_user_max_stretch_hand_computed () =
  (* Two users on one unit-speed machine: user 0 owns jobs 0 and 2,
     user 1 owns job 1.  SRPT order on sizes 1/2/1 released together:
     completions 1 (job 0), 2 (job 2), 4 (job 1).  Stretches: job0 = 1/1,
     job2 = 2/1, job1 = 4/2 -> user 0 aggregates 3, user 1 aggregates 2. *)
  let jobs =
    [ Job.with_user (Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:0) 0;
      Job.with_user (Job.make ~id:1 ~release:0.0 ~size:2.0 ~databank:0) 1;
      Job.with_user (Job.make ~id:2 ~release:0.0 ~size:1.0 ~databank:0) 0 ]
  in
  let inst = Instance.make ~platform:one_machine_platform ~jobs in
  Alcotest.(check int) "num_users" 2 (Instance.num_users inst);
  let completion = [| 1.0; 4.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "worst per-user aggregate stretch" 3.0
    (Metrics.eval Metrics.Per_user_max_stretch inst ~completion);
  Alcotest.(check (float 0.0)) "sum over both users" 5.0
    (Metrics.eval Metrics.Sum_stretch inst ~completion)

let prop_single_user_degenerates_to_sum =
  QCheck2.Test.make
    ~name:"Per_user_max_stretch with one user = Sum_stretch" ~count:20
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, completion = completed_instance seed in
      Metrics.eval Metrics.Per_user_max_stretch inst ~completion
      = Metrics.eval Metrics.Sum_stretch inst ~completion)

let test_generator_user_tags () =
  let seed = 7 in
  let tagged_inst, _ = completed_instance ~users:4 seed in
  let plain_inst, _ = completed_instance seed in
  Array.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "tag in range" true (j.Job.user >= 0 && j.Job.user < 4))
    (Instance.jobs tagged_inst);
  Array.iter
    (fun (j : Job.t) -> Alcotest.(check int) "untagged user is 0" 0 j.Job.user)
    (Instance.jobs plain_inst);
  (* Tagging draws from the same stream after the job attributes, so the
     job set itself (ids, releases, sizes, databanks) is unchanged. *)
  Alcotest.(check int) "same job count" (Instance.num_jobs plain_inst)
    (Instance.num_jobs tagged_inst);
  Array.iteri
    (fun i (j : Job.t) ->
      let t = Instance.job tagged_inst i in
      Alcotest.(check bool) "same job attributes" true
        (j.Job.release = t.Job.release && j.Job.size = t.Job.size
        && j.Job.databank = t.Job.databank))
    (Instance.jobs plain_inst)

(* ---- the redesigned registry ------------------------------------------- *)

let table1_names =
  [ "Offline"; "Online"; "Online-EDF"; "Online-EGDF"; "Bender98"; "SWRPT";
    "SRPT"; "SPT"; "Bender02"; "MCT-Div"; "MCT" ]

let test_registry_shape () =
  Alcotest.(check (list string))
    "paper panel is the Table 1 portfolio in order" table1_names
    (E.Sched_registry.panel_names E.Sched_registry.paper_panel);
  Alcotest.(check (list string))
    "registry appends the non-clairvoyant extensions"
    (table1_names @ [ "EQUI"; "RR" ])
    (E.Sched_registry.panel_names E.Sched_registry.registry);
  Alcotest.(check (list string))
    "non-clairvoyant sub-panel" [ "EQUI"; "RR" ]
    (E.Sched_registry.panel_names
       (E.Sched_registry.select E.Sched_registry.is_nonclairvoyant))

let test_registry_find_case_insensitive () =
  let name n =
    match E.Sched_registry.find n with
    | Some e -> e.E.Sched_registry.name
    | None -> "<none>"
  in
  Alcotest.(check string) "exact" "SRPT" (name "SRPT");
  Alcotest.(check string) "lowercase" "SRPT" (name "srpt");
  Alcotest.(check string) "mixed case" "Online-EGDF" (name "online-egdf");
  Alcotest.(check string) "equi" "EQUI" (name "EqUi");
  Alcotest.(check bool) "unknown" true (E.Sched_registry.find "nope" = None);
  Alcotest.(check bool) "find_scheduler follows find" true
    (Option.is_some (E.Sched_registry.find_scheduler "rr"))

let test_registry_targets_and_describe () =
  let get n = Option.get (E.Sched_registry.find n) in
  Alcotest.(check bool) "Online targets max-stretch" true
    (E.Sched_registry.targets Metrics.Max_stretch (get "Online"));
  Alcotest.(check bool) "Online targets any stretch objective" true
    (E.Sched_registry.targets (Metrics.Lp_stretch 2.0) (get "Online"));
  Alcotest.(check bool) "MCT does not target stretch" false
    (E.Sched_registry.targets Metrics.Max_stretch (get "MCT"));
  Alcotest.(check bool) "SRPT targets flow" true
    (E.Sched_registry.targets Metrics.Sum_flow (get "SRPT"));
  let d = E.Sched_registry.describe (get "EQUI") in
  Alcotest.(check bool) "describe mentions the info model" true
    (String.length d > 0
    &&
    let contains sub =
      let n = String.length d and m = String.length sub in
      let rec go i = i + m <= n && (String.sub d i m = sub || go (i + 1)) in
      go 0
    in
    contains "non-clairvoyant")

(* ---- size-blind schedulers --------------------------------------------- *)

let test_equi_processor_sharing () =
  (* Two identical jobs sharing one unit-speed machine: both finish at 2. *)
  let inst =
    Instance.make ~platform:one_machine_platform
      ~jobs:
        [ Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:0;
          Job.make ~id:1 ~release:0.0 ~size:1.0 ~databank:0 ]
  in
  let sched = Sim.run ~horizon:1e9 Gripps_sched.Nonclairvoyant.equi inst in
  Alcotest.(check bool) "complete" true (Schedule.all_completed sched);
  Alcotest.(check (float 1e-6)) "job 0 shares to the end" 2.0
    (Option.get sched.Schedule.completion.(0));
  Alcotest.(check (float 1e-6)) "job 1 shares to the end" 2.0
    (Option.get sched.Schedule.completion.(1))

let test_rr_rotates () =
  (* Round-robin, quantum 1: job 0 runs [0,1) and finishes; job 1 owns
     the machine afterwards and finishes at 2. *)
  let inst =
    Instance.make ~platform:one_machine_platform
      ~jobs:
        [ Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:0;
          Job.make ~id:1 ~release:0.0 ~size:1.0 ~databank:0 ]
  in
  let sched = Sim.run ~horizon:1e9 Gripps_sched.Nonclairvoyant.rr inst in
  Alcotest.(check bool) "complete" true (Schedule.all_completed sched);
  Alcotest.(check (float 1e-6)) "job 0 first" 1.0
    (Option.get sched.Schedule.completion.(0));
  Alcotest.(check (float 1e-6)) "job 1 second" 2.0
    (Option.get sched.Schedule.completion.(1))

let prop_blind_schedulers_complete =
  QCheck2.Test.make
    ~name:"EQUI and RR run generated instances to a valid completion"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 1 3))
    (fun (seed, density_q) ->
      let c =
        W.Config.make ~sites:2 ~databases:2 ~availability:0.8
          ~density:(float_of_int density_q) ~horizon:6.0 ()
      in
      let inst = W.Generator.instance (Gripps_rng.Splitmix.create seed) c in
      List.for_all
        (fun s ->
          let sched = Sim.run ~horizon:1e9 s inst in
          Schedule.validate sched = [] && Schedule.all_completed sched)
        [ Gripps_sched.Nonclairvoyant.equi;
          Gripps_sched.Nonclairvoyant.rr;
          Gripps_sched.Nonclairvoyant.rr_with ~quantum:0.5 ])

let test_rr_rejects_bad_quantum () =
  Alcotest.check_raises "non-positive quantum"
    (Invalid_argument "Nonclairvoyant.rr_with: non-positive quantum")
    (fun () -> ignore (Gripps_sched.Nonclairvoyant.rr_with ~quantum:0.0))

(* ---- runner and table plumbing ------------------------------------------ *)

let small_config =
  W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.0
    ~horizon:4.0 ()

let test_runner_objectives_ride_along () =
  let inst =
    W.Generator.instance (Gripps_rng.Splitmix.create 5) small_config
  in
  let objectives = [ Metrics.Lp_stretch 2.0; Metrics.Per_user_max_stretch ] in
  let r =
    E.Runner.run_instance
      ~schedulers:
        [ Gripps_sched.List_sched.flat_srpt;
          Gripps_sched.Legacy_adapter.flat Gripps_sched.Nonclairvoyant.equi ]
      ~objectives small_config inst
  in
  Alcotest.(check int) "one measurement per scheduler" 2
    (List.length r.E.Runner.measurements);
  List.iter
    (fun (m : E.Runner.measurement) ->
      Alcotest.(check bool) "objectives in request order" true
        (List.map fst m.E.Runner.objectives = objectives);
      Alcotest.(check bool) "classic fields answer value" true
        (E.Runner.value m Metrics.Max_stretch = Some m.E.Runner.max_stretch);
      Alcotest.(check bool) "requested objective answers value" true
        (Option.is_some (E.Runner.value m (Metrics.Lp_stretch 2.0)));
      Alcotest.(check bool) "unrequested objective is None" true
        (E.Runner.value m Metrics.Makespan = None))
    r.E.Runner.measurements;
  let ratios = E.Runner.ratios_for (Metrics.Lp_stretch 2.0) r in
  Alcotest.(check int) "a ratio per measurement" 2 (List.length ratios);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "min-best normalization >= 1" true (v >= 1.0))
    ratios;
  Alcotest.(check bool) "some scheduler attains the best" true
    (List.exists (fun (_, v) -> v = 1.0) ratios)

let test_lp_and_clairvoyance_tables () =
  let sweep ?schedulers ?objectives () =
    E.Tables.sweep ?schedulers ?objectives ~seed:3 ~instances_per_config:2
      ~configs:[ small_config ] ~horizon:4.0 ()
  in
  (* ℓ_p sweep on the default panel. *)
  let lp = E.Tables.lp_table (sweep ~objectives:E.Tables.lp_objectives ()) in
  Alcotest.(check int) "four ℓ_p columns" 4 (List.length lp.E.Tables.o_columns);
  Alcotest.(check bool) "rows present" true (lp.E.Tables.o_rows <> []);
  List.iter
    (fun (r : E.Tables.objective_row) ->
      Alcotest.(check int) "a cell per column" 4
        (List.length r.E.Tables.o_cells);
      Alcotest.(check bool) "every panel cell is populated" true
        (List.for_all Option.is_some r.E.Tables.o_cells))
    lp.E.Tables.o_rows;
  (* Clairvoyance gap on the full registry. *)
  let cl =
    E.Tables.clairvoyance_table
      (sweep
         ~schedulers:(E.Sched_registry.schedulers E.Sched_registry.registry)
         ())
  in
  let row name =
    List.find_opt
      (fun (r : E.Tables.objective_row) -> r.E.Tables.o_scheduler = name)
      cl.E.Tables.o_rows
  in
  Alcotest.(check bool) "EQUI row present" true (row "EQUI" <> None);
  Alcotest.(check bool) "RR row present" true (row "RR" <> None);
  Alcotest.(check string) "EQUI is marked non-clairvoyant" "non-clairvoyant"
    (Option.get (row "EQUI")).E.Tables.o_info;
  Alcotest.(check string) "SRPT is marked clairvoyant" "clairvoyant"
    (Option.get (row "SRPT")).E.Tables.o_info;
  (* Both tables render. *)
  Alcotest.(check bool) "lp table renders" true
    (String.length (E.Render.objective_table lp) > 0);
  Alcotest.(check bool) "clairvoyance table renders" true
    (String.length (E.Render.objective_table cl) > 0)

let suite =
  ( "objectives",
    [ QCheck_alcotest.to_alcotest prop_lp_limits_exact;
      QCheck_alcotest.to_alcotest prop_lp_monotone;
      QCheck_alcotest.to_alcotest prop_lp_gap_bound;
      QCheck_alcotest.to_alcotest prop_bit_identical_to_legacy;
      Alcotest.test_case "Incomplete is typed and carries the job" `Quick
        test_incomplete_is_typed;
      Alcotest.test_case "objective_of_string" `Quick test_objective_of_string;
      Alcotest.test_case "objective_name" `Quick test_objective_names;
      Alcotest.test_case "eval rejects p < 1" `Quick test_eval_rejects_bad_p;
      Alcotest.test_case "per-user max stretch, hand-computed" `Quick
        test_per_user_max_stretch_hand_computed;
      QCheck_alcotest.to_alcotest prop_single_user_degenerates_to_sum;
      Alcotest.test_case "generator tags users deterministically" `Quick
        test_generator_user_tags;
      Alcotest.test_case "registry shape and panels" `Quick test_registry_shape;
      Alcotest.test_case "registry find is case-insensitive" `Quick
        test_registry_find_case_insensitive;
      Alcotest.test_case "registry targets and describe" `Quick
        test_registry_targets_and_describe;
      Alcotest.test_case "EQUI is processor sharing" `Quick
        test_equi_processor_sharing;
      Alcotest.test_case "RR rotates on quantum boundaries" `Quick
        test_rr_rotates;
      QCheck_alcotest.to_alcotest prop_blind_schedulers_complete;
      Alcotest.test_case "rr_with rejects non-positive quantum" `Quick
        test_rr_rejects_bad_quantum;
      Alcotest.test_case "runner carries requested objectives" `Quick
        test_runner_objectives_ride_along;
      Alcotest.test_case "lp and clairvoyance tables" `Quick
        test_lp_and_clairvoyance_tables ] )
