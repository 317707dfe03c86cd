(* Tracked solver benchmark: pinned seeded workloads, timed end to end,
   with the pre-optimization baseline checked in for trajectory tracking.

   The harness times the exact offline solver, the float solver and the
   on-line heuristic on a fixed corpus, captures the solver
   instrumentation counters, and verifies two result invariants:

   - warm/cold agreement: the warm-started pipeline
     ([Stretch_solver.warm_enabled = true], the default) must return the
     exact same rational optimum as the cold from-scratch pipeline —
     this is machine-independent and treated as a hard failure;
   - baseline agreement: the optimum must equal the [s_star] recorded in
     the baseline below.  The workload generator goes through libm
     (exp/log), so on a machine with a different libm the generated
     instances — and hence the optima — can legitimately differ; a
     mismatch is therefore reported but left to the caller to escalate.

   Baseline timings were measured at the pre-optimization commit (the
   parent of the change introducing this module) on the reference
   machine, median of 5 after warmup; they give the "before" column of
   BENCH_stretch.json. *)

module S = Gripps_core.Stretch_solver
module W = Gripps_workload
module Q = Gripps_numeric.Rat

type spec = {
  name : string;
  sites : int;
  databases : int;
  availability : float;
  density : float;
  horizon : float;
  seed : int;
}

let corpus =
  [ { name = "n06"; sites = 3; databases = 3; availability = 0.6;
      density = 1.0; horizon = 60.0; seed = 13 };
    { name = "n76"; sites = 3; databases = 3; availability = 0.6;
      density = 1.0; horizon = 150.0; seed = 7 };
    { name = "n52"; sites = 3; databases = 3; availability = 0.6;
      density = 1.0; horizon = 302.9; seed = 42 } ]

type baseline_entry = { b_s_star : string; b_exact_ms : float; b_float_ms : float }

let baseline =
  [ ("n06",
     { b_s_star = "4114905997506199231/97499325005730634752";
       b_exact_ms = 10.046; b_float_ms = 1.020 });
    ("n76",
     { b_s_star = "6734715689046693/92413416673918189";
       b_exact_ms = 681.869; b_float_ms = 29.594 });
    ("n52",
     { b_s_star = "84470385685057034/608723212653874665";
       b_exact_ms = 370.634; b_float_ms = 53.579 }) ]

let baseline_online_ms = 4.629

type instance_report = {
  name : string;
  jobs : int;
  s_star : string;
  exact_ms : float;
  float_ms : float;
  solver : S.stats;  (* counters for one exact solve *)
  fast_hit_rate : float;
  speedup : float;         (* baseline exact / current exact *)
  cold_warm_match : bool;
  baseline_match : bool;
}

type sweep_bench = {
  sweep_jobs : int;
  sweep_domains : int;
  seq_s : float;
  par_s : float;
  par_speedup : float;
  deterministic : bool;
}

type report = {
  instances : instance_report list;
  online_ms : float;
  online_baseline_ms : float;
  all_cold_warm_match : bool;
  all_baseline_match : bool;
  sweep : sweep_bench;
}

let problem_of spec =
  let c =
    W.Config.make ~sites:spec.sites ~databases:spec.databases
      ~availability:spec.availability ~density:spec.density
      ~horizon:spec.horizon ()
  in
  let inst = W.Generator.instance (Gripps_rng.Splitmix.create spec.seed) c in
  (Gripps_core.Snapshot.of_instance inst).Gripps_core.Snapshot.problem

let time_median_ms ~repeats f =
  ignore (f ());  (* warmup *)
  let ts =
    Array.init (max 1 repeats) (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare ts;
  1000.0 *. ts.(Array.length ts / 2)

let measure_instance ~repeats spec =
  let p = problem_of spec in
  let jobs =
    List.length (List.filter (fun j -> Q.sign j.S.remaining > 0) p.S.jobs)
  in
  (* One instrumented solve for the counters, then timed repetitions. *)
  S.reset_stats ();
  let s_warm = S.optimal_max_stretch p in
  let solver = S.stats () in
  let exact_ms = time_median_ms ~repeats (fun () -> S.optimal_max_stretch p) in
  let float_ms =
    time_median_ms ~repeats (fun () -> S.optimal_max_stretch_float p)
  in
  (* Cold re-solve: the pre-warm-start pipeline must agree exactly. *)
  let s_cold =
    S.warm_enabled := false;
    Fun.protect ~finally:(fun () -> S.warm_enabled := true) (fun () ->
        S.optimal_max_stretch p)
  in
  let fast_hit_rate =
    let total = solver.S.rat_fast_hits + solver.S.rat_fast_falls in
    if total = 0 then 1.0
    else float_of_int solver.S.rat_fast_hits /. float_of_int total
  in
  let b = List.assoc spec.name baseline in
  { name = spec.name; jobs; s_star = Q.to_string s_warm; exact_ms; float_ms;
    solver; fast_hit_rate;
    speedup = (if exact_ms > 0.0 then b.b_exact_ms /. exact_ms else infinity);
    cold_warm_match = Q.equal s_warm s_cold;
    baseline_match = String.equal (Q.to_string s_warm) b.b_s_star }

let measure_online ~repeats () =
  let c =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0
      ~horizon:30.0 ()
  in
  let inst = W.Generator.instance (Gripps_rng.Splitmix.create 42) c in
  let online =
    match Sched_registry.find_scheduler "Online" with
    | Some s -> s
    | None -> invalid_arg "Perf: Online missing from the scheduler registry"
  in
  time_median_ms ~repeats (fun () ->
      Gripps_engine.Sim.run_report_flat ~horizon:1e9 online inst)

(* Sweep benchmark: the same pinned mini-sweep timed on a sequential pool
   and on a [domains]-wide pool, with the rendered aggregate tables
   byte-compared — the tracked evidence that parallelism changes wall
   time and nothing else.  The panel is the cheap half of the portfolio
   so the benchmark stays in seconds even at one repetition. *)
let sweep_panel = [ "Online"; "Online-EDF"; "SWRPT"; "SRPT"; "SPT"; "MCT" ]

let measure_sweep ~domains () =
  let schedulers =
    List.filter_map Sched_registry.find_scheduler sweep_panel
  in
  let config =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0
      ~horizon:45.0 ()
  in
  let instances = 4 in
  let sweep = Runner.config_sweep ~schedulers ~seed:20060505 ~instances config in
  let run_with pool =
    let t0 = Unix.gettimeofday () in
    let rs = Gripps_parallel.Sweep.run ~pool sweep in
    (Unix.gettimeofday () -. t0, Render.table (Tables.table1 rs))
  in
  let seq_s, seq_table = run_with Gripps_parallel.Pool.sequential in
  let par_s, par_table = run_with (Gripps_parallel.Pool.create ~domains ()) in
  { sweep_jobs = instances; sweep_domains = domains; seq_s; par_s;
    par_speedup = (if par_s > 0.0 then seq_s /. par_s else infinity);
    deterministic = String.equal seq_table par_table }

let run ?(repeats = 5) ?(sweep_domains = 2) ?(progress = fun _ -> ()) () =
  let instances =
    List.map
      (fun (spec : spec) ->
        progress spec.name;
        measure_instance ~repeats spec)
      corpus
  in
  progress "online";
  let online_ms = measure_online ~repeats () in
  progress "sweep";
  let sweep = measure_sweep ~domains:(max 1 sweep_domains) () in
  { instances; online_ms; online_baseline_ms = baseline_online_ms;
    all_cold_warm_match = List.for_all (fun i -> i.cold_warm_match) instances;
    all_baseline_match = List.for_all (fun i -> i.baseline_match) instances;
    sweep }

(* ---- output ----------------------------------------------------------- *)

let to_json r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"gripps-bench-stretch/1\",\n  \"instances\": [\n";
  List.iteri
    (fun i e ->
      let b = List.assoc e.name baseline in
      add "    {\"name\": %S, \"jobs\": %d, \"s_star\": %S,\n" e.name e.jobs
        e.s_star;
      add "     \"exact_ms\": %.3f, \"float_ms\": %.3f, \"speedup\": %.2f,\n"
        e.exact_ms e.float_ms e.speedup;
      add
        "     \"exact_probes\": %d, \"float_probes\": %d, \"graph_builds\": \
         %d, \"warm_updates\": %d,\n"
        e.solver.S.exact_probes e.solver.S.float_probes
        e.solver.S.graph_builds e.solver.S.warm_updates;
      add "     \"augmenting_paths\": %d, \"fast_hit_rate\": %.4f,\n"
        e.solver.S.augmenting_paths e.fast_hit_rate;
      add
        "     \"baseline\": {\"s_star\": %S, \"exact_ms\": %.3f, \
         \"float_ms\": %.3f},\n"
        b.b_s_star b.b_exact_ms b.b_float_ms;
      add "     \"cold_warm_match\": %b, \"baseline_match\": %b}%s\n"
        e.cold_warm_match e.baseline_match
        (if i = List.length r.instances - 1 then "" else ","))
    r.instances;
  add "  ],\n";
  add "  \"online_ms\": %.3f,\n  \"baseline_online_ms\": %.3f,\n" r.online_ms
    r.online_baseline_ms;
  add
    "  \"sweep\": {\"jobs\": %d, \"domains\": %d, \"seq_s\": %.3f, \
     \"par_s\": %.3f, \"speedup\": %.2f, \"deterministic\": %b},\n"
    r.sweep.sweep_jobs r.sweep.sweep_domains r.sweep.seq_s r.sweep.par_s
    r.sweep.par_speedup r.sweep.deterministic;
  add "  \"all_cold_warm_match\": %b,\n  \"all_baseline_match\": %b\n}\n"
    r.all_cold_warm_match r.all_baseline_match;
  Buffer.contents buf

(* Atomic (temp + fsync + rename): a killed benchmark never leaves a torn
   BENCH_*.json behind for the CI comparison step to choke on. *)
let write_json ~path r = Gripps_obs.Fsio.write_atomic ~path (to_json r)

let render r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Solver benchmark (pinned corpus; baseline = pre-optimization commit)\n";
  add "%-6s %5s %12s %12s %8s %12s %7s %7s %6s %6s\n" "name" "jobs"
    "exact(ms)" "before(ms)" "speedup" "float(ms)" "probes" "builds" "warm"
    "hit%";
  List.iter
    (fun e ->
      let b = List.assoc e.name baseline in
      add "%-6s %5d %12.2f %12.2f %7.1fx %12.2f %7d %7d %6d %5.1f%%\n" e.name
        e.jobs e.exact_ms b.b_exact_ms e.speedup e.float_ms
        e.solver.S.exact_probes e.solver.S.graph_builds
        e.solver.S.warm_updates (100.0 *. e.fast_hit_rate))
    r.instances;
  add "online heuristic: %.2f ms (baseline %.2f ms)\n" r.online_ms
    r.online_baseline_ms;
  add "sweep bench: %d jobs, sequential %.2f s, %d-domain %.2f s (%.2fx), \
       deterministic: %b\n"
    r.sweep.sweep_jobs r.sweep.seq_s r.sweep.sweep_domains r.sweep.par_s
    r.sweep.par_speedup r.sweep.deterministic;
  add "warm/cold results identical: %b; baseline s* identical: %b\n"
    r.all_cold_warm_match r.all_baseline_match;
  Buffer.contents buf
