(* Command-line interface to the GriPPS stretch-scheduling reproduction.

   Subcommands:
     run       simulate one random instance with the heuristic portfolio
     optimal   print the exact optimal max-stretch of a random instance
     table     regenerate one (or all) of the paper's Tables 1-16
     figure    regenerate Figure 3(a)/3(b)
     overhead  regenerate the section 5.3 scheduling-overhead comparison
     perf      tracked solver benchmark against the recorded baseline
     scale     large-n events/sec benchmark of the priority rule engine
     faults    resilience sweep: degradation under machine failures
     federate  sharded platforms behind an SRPT routing front-end *)

open Cmdliner
open Gripps_model
open Gripps_engine
module W = Gripps_workload
module E = Gripps_experiments
module Q = Gripps_numeric.Rat
module P = Gripps_parallel

(* ---- shared options -------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let sites_t =
  Arg.(value & opt int 3 & info [ "sites" ] ~docv:"N" ~doc:"Number of clusters.")

let databases_t =
  Arg.(value & opt int 3 & info [ "databases" ] ~docv:"N" ~doc:"Number of databanks.")

let availability_t =
  Arg.(
    value
    & opt float 0.6
    & info [ "availability" ] ~docv:"P" ~doc:"Databank replication probability.")

let density_t =
  Arg.(value & opt float 1.0 & info [ "density" ] ~docv:"D" ~doc:"Workload density.")

let users_t =
  Arg.(
    value
    & opt int 1
    & info [ "users" ] ~docv:"N"
        ~doc:"Tag jobs with one of $(docv) users uniformly at random (feeds \
              the per-user fairness objective; default 1, untagged).")

let horizon_t default =
  Arg.(
    value
    & opt float default
    & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Arrival window length.")

let instances_t default =
  Arg.(
    value
    & opt int default
    & info [ "instances" ] ~docv:"K" ~doc:"Random instances per configuration.")

let jobs_t =
  Arg.(
    value
    & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for sweeps (default \\$GRIPPS_JOBS, else 1). \
           Results are bit-identical at any value; only wall time changes.")

(* --jobs 0 (the default) defers to GRIPPS_JOBS so CI and scripts can set
   parallelism without touching every invocation. *)
let pool_of_jobs jobs =
  if jobs <= 0 then P.Pool.create () else P.Pool.create ~domains:jobs ()

let config ~sites ~databases ~availability ~density ~horizon =
  W.Config.make ~sites ~databases ~availability ~density ~horizon ()

(* ---- run -------------------------------------------------------------- *)

let scheduler_by_name = E.Sched_registry.find_scheduler

let list_schedulers () =
  List.iter
    (fun e -> print_endline (E.Sched_registry.describe e))
    E.Sched_registry.registry

let list_schedulers_t =
  Arg.(
    value & flag
    & info [ "list-schedulers" ]
        ~doc:"Print every registered scheduler (name, kind, information \
              model, targeted objectives) and exit.")

let run_cmd =
  let scheduler_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheduler" ] ~docv:"NAME"
          ~doc:"Run a single scheduler, by case-insensitive registry name \
                (default: the clairvoyant Table 1 portfolio).")
  in
  let gantt_t =
    Arg.(
      value & flag
      & info [ "gantt" ]
          ~doc:"Print a text Gantt chart of each scheduler's realized schedule.")
  in
  let action seed sites databases availability density horizon users scheduler
      gantt list =
    if list then begin
      list_schedulers ();
      exit 0
    end;
    let c =
      W.Config.make ~sites ~databases ~availability ~density ~horizon ~users ()
    in
    let rng = Gripps_rng.Splitmix.create seed in
    let inst = W.Generator.instance rng c in
    Printf.printf "# %s\n# %d jobs, total speed %.1f MB/s\n" (W.Config.describe c)
      (Instance.num_jobs inst)
      (Platform.total_speed (Instance.platform inst));
    let schedulers =
      match scheduler with
      | None -> E.Sched_registry.schedulers E.Sched_registry.paper_panel
      | Some name ->
        (match scheduler_by_name name with
         | Some s -> [ s ]
         | None ->
           Printf.eprintf "unknown scheduler %s; available: %s\n" name
             (String.concat ", "
                (E.Sched_registry.panel_names E.Sched_registry.registry));
           exit 2)
    in
    let r = E.Runner.run_instance ~schedulers c inst in
    Printf.printf "%-14s %12s %12s %10s %10s\n" "scheduler" "max-stretch"
      "sum-stretch" "time(s)" "solver(s)";
    List.iter
      (fun (m : E.Runner.measurement) ->
        Printf.printf "%-14s %12.4f %12.4f %10.3f %10.3f\n" m.scheduler m.max_stretch
          m.sum_stretch m.wall_time m.solver_time)
      r.measurements;
    if gantt then
      List.iter
        (fun s ->
          if List.exists (fun (m : E.Runner.measurement) -> m.scheduler = s.Sim.fname)
               r.measurements
          then begin
            Printf.printf "\n--- %s ---\n" s.Sim.fname;
            print_string
              (Gantt.render
                 (Sim.run_report_flat ~horizon:1e9 s inst).Sim.schedule)
          end)
        schedulers;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one random instance with the heuristic portfolio.")
    Term.(
      ret
        (const action $ seed_t $ sites_t $ databases_t $ availability_t $ density_t
         $ horizon_t 60.0 $ users_t $ scheduler_t $ gantt_t $ list_schedulers_t))

(* ---- optimal ---------------------------------------------------------- *)

let optimal_cmd =
  let budget_iters_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-iters" ] ~docv:"N"
          ~doc:"Cap the solver at $(docv) feasibility probes / Newton \
                steps; exits 3 when the budget is exhausted.")
  in
  let budget_secs_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-secs" ] ~docv:"SECONDS"
          ~doc:"Wall-clock cap on the solver; exits 3 when the budget is \
                exhausted.")
  in
  let action seed sites databases availability density horizon biters bsecs =
    let c = config ~sites ~databases ~availability ~density ~horizon in
    let rng = Gripps_rng.Splitmix.create seed in
    let inst = W.Generator.instance rng c in
    let budget =
      match (biters, bsecs) with
      | None, None -> None
      | _ ->
        let d = Gripps_core.Stretch_solver.default_budget in
        Some
          { Gripps_core.Stretch_solver.max_iters =
              Option.value biters ~default:d.Gripps_core.Stretch_solver.max_iters;
            max_seconds = Option.value bsecs ~default:d.max_seconds }
    in
    let s = Gripps_core.Offline.optimal_max_stretch ?budget inst in
    Printf.printf "%d jobs; exact optimal max-stretch S* = %s = %.9f\n"
      (Instance.num_jobs inst) (Q.to_string s) (Q.to_float s);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:
         "Print the exact (rational) optimal max-stretch of a random \
          instance. With --budget-iters/--budget-secs the solver is \
          guarded: a blown budget exits with status 3 instead of hanging.")
    Term.(
      ret
        (const action $ seed_t $ sites_t $ databases_t $ availability_t $ density_t
         $ horizon_t 60.0 $ budget_iters_t $ budget_secs_t))

(* ---- table ------------------------------------------------------------ *)

let table_term =
  let which_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"N|all|clairvoyance|lp"
          ~doc:"Paper table number (1-16), 'all', or one of the new panels: \
                $(b,clairvoyance) (Table 1 portfolio vs the size-blind \
                EQUI/RR) or $(b,lp) (L_p stretch sweep, p in {1, 2, 3, inf}).")
  in
  let objective_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:"Aggregate tables 1-16 over this objective instead of the \
                classic max-/sum-stretch pair: $(b,p1), $(b,p2), $(b,p3), \
                $(b,pinf) (L_p stretch), $(b,fp2)... (L_p flow), $(b,max), \
                $(b,sum), $(b,makespan), $(b,user) (per-user max stretch).")
  in
  let guard_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "guard" ] ~docv:"SECONDS"
          ~doc:
            "Simulation abort guard: a run dragged past this simulated date \
             cannot deliver complete metrics and exits 3, naming the first \
             pending job (default 1e9 — effectively unguarded).")
  in
  let action which seed instances horizon users objective guard jobs =
    let progress k total = Printf.eprintf "\rjob %d/%d%!" k total in
    let pool = pool_of_jobs jobs in
    (* --users rewrites the factorial grid; the default grid is untouched
       so historical outputs stay byte-identical. *)
    let configs =
      if users <= 1 then None
      else
        Some
          (List.map
             (fun c -> { c with W.Config.users })
             (W.Config.paper_grid ~horizon ()))
    in
    let objective =
      match objective with
      | None -> None
      | Some s ->
        (match Metrics.objective_of_string s with
         | Some o -> Some o
         | None ->
           Printf.eprintf
             "unknown objective %s (use p1, p2, p3, pinf, fp1..fpinf, max, \
              sum, max-flow, sum-flow, makespan or user)\n"
             s;
           exit 2)
    in
    let sweep ?schedulers ?objectives () =
      let r =
        E.Tables.sweep ~seed ~instances_per_config:instances ?configs
          ?schedulers ?objectives ?guard ~progress ~pool ~horizon ()
      in
      Printf.eprintf "\n%!";
      r
    in
    let print_objective (n, t) =
      Printf.printf "=== Table %d ===\n%s\n" n (E.Render.objective_table t)
    in
    (match which with
     | "clairvoyance" ->
       let results =
         sweep ~schedulers:(E.Sched_registry.schedulers E.Sched_registry.registry)
           ()
       in
       print_string (E.Render.objective_table (E.Tables.clairvoyance_table results))
     | "lp" ->
       let results = sweep ~objectives:E.Tables.lp_objectives () in
       print_string (E.Render.objective_table (E.Tables.lp_table results))
     | n ->
       let which_table all =
         match n with
         | "all" -> `All
         | _ ->
           (match int_of_string_opt n with
            | Some k when List.mem_assoc k all -> `One k
            | Some _ | None ->
              Printf.eprintf
                "no such table: %s (use 1-16, 'all', 'clairvoyance' or 'lp')\n" n;
              exit 2)
       in
       (match objective with
        | None ->
          let results = sweep () in
          let all = E.Tables.all_tables results in
          let print (n, t) =
            Printf.printf "=== Table %d ===\n%s\n" n (E.Render.table t)
          in
          (match which_table all with
           | `All -> List.iter print all
           | `One k -> print (k, List.assoc k all))
        | Some o ->
          let results = sweep ~objectives:[ o ] () in
          let columns =
            [ { E.Tables.label = Metrics.objective_name o; objective = o } ]
          in
          let all = E.Tables.objective_tables ~columns results in
          (match which_table all with
           | `All -> List.iter print_objective all
           | `One k -> print_objective (k, List.assoc k all))));
    `Ok ()
  in
  Term.(
    ret
      (const action $ which_t $ seed_t $ instances_t 3 $ horizon_t 30.0 $ users_t
       $ objective_t $ guard_t $ jobs_t))

let table_cmd =
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Regenerate the paper's aggregate statistic tables (1-16), \
          optionally over any objective (--objective), plus the \
          clairvoyance-gap and L_p sweep panels.")
    table_term

let tables_cmd =
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Alias of $(b,table): regenerate the paper's tables (1-16).")
    table_term

(* ---- figure ----------------------------------------------------------- *)

let figure_cmd =
  let which_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"3a|3b" ~doc:"Figure panel to regenerate.")
  in
  let action which seed instances horizon =
    let base =
      W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon ()
    in
    let progress k total = Printf.eprintf "\rdensity %d/%d%!" k total in
    let samples = E.Figures.sweep ~seed ~instances_per_density:instances ~progress ~base () in
    Printf.eprintf "\n%!";
    (match which with
     | "3a" -> print_string (E.Render.figure3a samples)
     | "3b" -> print_string (E.Render.figure3b samples)
     | _ ->
       Printf.eprintf "no such figure: %s (use 3a or 3b)\n" which;
       exit 2);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:"Regenerate Figure 3 (optimized vs non-optimized on-line heuristic).")
    Term.(ret (const action $ which_t $ seed_t $ instances_t 10 $ horizon_t 30.0))

(* ---- overhead --------------------------------------------------------- *)

let overhead_cmd =
  let action seed instances horizon jobs =
    print_string
      (E.Render.overhead
         (E.Overhead.measure ~seed ~instances ~horizon ~pool:(pool_of_jobs jobs) ()));
    print_string (E.Render.overhead_scaling (E.Overhead.scaling ~seed ()));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "overhead" ~doc:"Regenerate the section 5.3 scheduling-overhead study.")
    Term.(ret (const action $ seed_t $ instances_t 3 $ horizon_t 60.0 $ jobs_t))

(* ---- perf ------------------------------------------------------------- *)

let perf_cmd =
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the machine-readable BENCH_stretch.json document on \
                stdout instead of the table.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Also write the JSON document to $(docv).")
  in
  let repeats_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "repeats" ] ~docv:"K"
          ~doc:"Timed repetitions per measurement (median; default \
                \\$GRIPPS_PERF_REPEATS or 5).")
  in
  let action json out repeats jobs =
    let progress name = Printf.eprintf "measuring %s...\n%!" name in
    (* The sweep bench always times a parallel leg; --jobs sets its
       width, defaulting to GRIPPS_JOBS when that asks for parallelism
       and 2 domains otherwise. *)
    let sweep_domains =
      if jobs > 0 then jobs
      else
        let d = P.Pool.default_jobs () in
        if d > 1 then d else 2
    in
    let r = E.Perf.run ?repeats ~sweep_domains ~progress () in
    if json then print_string (E.Perf.to_json r)
    else print_string (E.Perf.render r);
    (match out with
     | Some path ->
       E.Perf.write_json ~path r;
       Printf.eprintf "wrote %s\n%!" path
     | None -> ());
    if not r.E.Perf.all_baseline_match then
      Printf.eprintf
        "note: optimum differs from the recorded baseline (expected when \
         the platform's libm differs from the reference machine's)\n%!";
    if not r.E.Perf.all_cold_warm_match then begin
      Printf.eprintf
        "error: warm-started solver disagrees with cold solve — this is a \
         bug\n%!";
      exit 1
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Benchmark the exact/float solvers and the on-line heuristic on a \
          pinned corpus, against the tracked pre-optimization baseline. \
          Exits non-zero if the warm-started solver disagrees with a cold \
          solve.")
    Term.(ret (const action $ json_t $ out_t $ repeats_t $ jobs_t))

(* ---- scale ------------------------------------------------------------ *)

let scale_cmd =
  let sizes_t =
    Arg.(
      value
      & opt (list int) E.Scale.default_sizes
      & info [ "n" ] ~docv:"N1,N2,..."
          ~doc:"Target job counts (one pinned instance per value).")
  in
  let legacy_cap_t =
    Arg.(
      value
      & opt int E.Scale.default_legacy_cap
      & info [ "legacy-cap" ] ~docv:"N"
          ~doc:"Largest n at which the legacy resort-from-scratch oracle \
                is also run and compared (the O(n log n)-per-event path \
                becomes impractical beyond this).")
  in
  let schedulers_t =
    Arg.(
      value
      & opt (list string) E.Scale.panel_names
      & info [ "schedulers" ] ~docv:"NAME1,NAME2,..."
          ~doc:"Subset of the priority panel (FCFS, SPT, SRPT, SWPT, SWRPT).")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the machine-readable BENCH_scale.json document on \
                stdout instead of the table.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH" ~doc:"Also write the JSON document to $(docv).")
  in
  let action seed sizes legacy_cap schedulers json out jobs =
    Gripps_engine.Gc_tune.throughput ();
    let progress k total = Printf.eprintf "\rcell %d/%d%!" k total in
    let r =
      E.Scale.run ~sizes ~legacy_cap ~schedulers ~pool:(pool_of_jobs jobs)
        ~progress ~seed ()
    in
    Printf.eprintf "\n%!";
    if json then print_string (E.Scale.to_json r)
    else print_string (E.Scale.render r);
    (match out with
     | Some path ->
       E.Scale.write_json ~path r;
       Printf.eprintf "wrote %s\n%!" path
     | None -> ());
    if not r.E.Scale.identical then begin
      List.iter
        (fun (n, s) ->
          Printf.eprintf
            "error: n=%d %s: the rule engine diverged from the resort \
             oracle — this is a bug\n%!"
            n s)
        (E.Scale.failing_cells r);
      exit 1
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Large-n scale experiment: events/sec of the flat zero-allocation \
          priority schedulers at n = 100..1000000, differentially checked \
          against the legacy resort oracle below --legacy-cap. Exits \
          non-zero on any divergence, naming the failing cells.")
    Term.(
      ret
        (const action $ seed_t $ sizes_t $ legacy_cap_t $ schedulers_t $ json_t
         $ out_t $ jobs_t))

(* ---- faults ----------------------------------------------------------- *)

let faults_cmd =
  let mtbf_t =
    Arg.(
      value
      & opt (list float) [ 3600.0; 900.0; 300.0 ]
      & info [ "mtbf" ] ~docv:"S1,S2,..."
          ~doc:"Per-machine mean-time-between-failures grid, seconds.")
  in
  let mttr_t =
    Arg.(
      value
      & opt float 60.0
      & info [ "mttr" ] ~docv:"SECONDS" ~doc:"Mean time to repair.")
  in
  let pause_t =
    Arg.(
      value & flag
      & info [ "pause" ]
          ~doc:
            "Pause semantics: in-flight work survives an outage (default: \
             crash, work since the last event is lost).")
  in
  let action seed sites databases availability density horizon instances mtbf_grid
      mttr pause jobs =
    let c = config ~sites ~databases ~availability ~density ~horizon in
    let loss = if pause then Fault.Pause else Fault.Crash in
    let sweep =
      E.Resilience.run ~loss ~mtbf_grid ~mttr ~pool:(pool_of_jobs jobs) ~seed
        ~instances c
    in
    print_string (E.Resilience.render sweep);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Resilience sweep: per-heuristic max-stretch degradation as the \
          machine failure rate grows.")
    Term.(
      ret
        (const action $ seed_t $ sites_t $ databases_t $ availability_t $ density_t
         $ horizon_t 60.0 $ instances_t 3 $ mtbf_t $ mttr_t $ pause_t $ jobs_t))

(* ---- trace ------------------------------------------------------------ *)

let trace_cmd =
  let scenario_t =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Pinned scenario name (omit to list them, or to verify all \
                with $(b,--verify)).")
  in
  let level_t =
    let parse = function
      | "counter" -> Ok `Counter
      | "span" -> Ok `Span
      | "event" -> Ok `Event
      | s -> Error (`Msg (Printf.sprintf "unknown level %s (counter|span|event)" s))
    in
    let print fmt l =
      Format.pp_print_string fmt
        (match l with `Counter -> "counter" | `Span -> "span" | `Event -> "event")
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Event
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Observability level: $(b,counter), $(b,span) or $(b,event) \
                (default event).")
  in
  let jsonl_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Write the structured event journal to $(docv), one JSON \
                object per line (implies --level event).")
  in
  let verify_t =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Replay the journal through the JSONL encoding and check \
                that the rebuilt schedule reproduces the live metrics \
                bit-for-bit.  Exits non-zero on mismatch.")
  in
  let action scenario level jsonl verify jobs =
    let module T = E.Trace in
    let list_scenarios () =
      Printf.printf "pinned scenarios:\n";
      List.iter
        (fun (s : T.scenario) ->
          Printf.printf "  %-14s %s\n" s.T.sc_name s.T.description)
        T.scenarios
    in
    let resolve name =
      match T.find name with
      | Some s -> s
      | None ->
        Printf.eprintf "unknown scenario %s; available: %s\n" name
          (String.concat ", " (List.map (fun s -> s.T.sc_name) T.scenarios));
        exit 2
    in
    if verify then begin
      let targets =
        match scenario with
        | None -> T.scenarios
        | Some name -> [ resolve name ]
      in
      (* Each scenario verifies in its own shard; reports come back in
         scenario order either way. *)
      let vs =
        P.Sweep.run ~pool:(pool_of_jobs jobs) (P.Sweep.of_list targets T.verify)
      in
      List.iter (fun v -> print_string (T.render_verification v)) vs;
      if not (List.for_all (fun v -> v.T.v_ok) vs) then exit 1
    end
    else begin
      match scenario with
      | None -> list_scenarios ()
      | Some name ->
        let sc = resolve name in
        let level =
          if jsonl <> None then Gripps_obs.Obs.Events
          else
            match level with
            | `Counter -> Gripps_obs.Obs.Counters
            | `Span -> Gripps_obs.Obs.Spans
            | `Event -> Gripps_obs.Obs.Events
        in
        let r = T.run ~level sc in
        (match jsonl with
         | Some path ->
           Gripps_obs.Obs.Journal.write_jsonl ~path
             r.T.report.Gripps_engine.Sim.journal;
           Printf.eprintf "wrote %d journal records to %s\n%!"
             (List.length r.T.report.Gripps_engine.Sim.journal) path
         | None -> ());
        print_string (T.render_result r)
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a pinned scenario with full observability: trace spans, \
          counters and the structured event journal, with JSONL export \
          and replay-based verification.")
    Term.(ret (const action $ scenario_t $ level_t $ jsonl_t $ verify_t $ jobs_t))

(* ---- serve ------------------------------------------------------------ *)

module S = Gripps_service.Service

let serve_cmd =
  let source_t =
    Arg.(
      value
      & opt string "poisson"
      & info [ "source" ] ~docv:"poisson|FILE|-"
          ~doc:
            "Job stream: $(b,poisson) for the synthetic open-loop driver \
             (see --rate/--n-jobs), a file path for the line protocol \
             ('release size databank' per line), or $(b,-) for stdin.")
  in
  let rate_t =
    Arg.(
      value
      & opt float 2.0
      & info [ "rate" ] ~docv:"JOBS/S" ~doc:"Poisson arrival rate.")
  in
  let n_jobs_t =
    Arg.(
      value
      & opt int 1000
      & info [ "n-jobs" ] ~docv:"N" ~doc:"Number of Poisson jobs to stream.")
  in
  let rule_t =
    Arg.(
      value
      & opt string "SWRPT"
      & info [ "scheduler" ] ~docv:"RULE"
          ~doc:"Priority rule: FCFS, SPT, SRPT, SWPT or SWRPT.")
  in
  let policy_t =
    Arg.(
      value
      & opt string "drop"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Admission policy when full: $(b,drop), $(b,block) or $(b,shed).")
  in
  let max_live_t =
    Arg.(
      value
      & opt int 4096
      & info [ "max-live" ] ~docv:"N" ~doc:"Slot-pool capacity (live jobs).")
  in
  let queue_cap_t =
    Arg.(
      value
      & opt int 1024
      & info [ "queue-cap" ] ~docv:"N" ~doc:"Pending-queue capacity.")
  in
  let checkpoint_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Atomically checkpoint the daemon state to $(docv).")
  in
  let every_t =
    Arg.(
      value
      & opt int 4096
      & info [ "checkpoint-every" ] ~docv:"EVENTS"
          ~doc:"Events between checkpoints.")
  in
  let journal_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Journal every event as JSONL, appended at each checkpoint to \
             segments under $(docv).")
  in
  let seg_limit_t =
    Arg.(
      value
      & opt int 65536
      & info [ "seg-limit" ] ~docv:"N" ~doc:"Max records per journal segment.")
  in
  let resume_t =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Restore from --checkpoint and continue where the previous \
                (possibly killed) daemon left off.")
  in
  let mtbf_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "mtbf" ] ~docv:"SECONDS"
          ~doc:"Inject Poisson machine failures with this \
                mean-time-between-failures.")
  in
  let mttr_t =
    Arg.(
      value
      & opt float 60.0
      & info [ "mttr" ] ~docv:"SECONDS" ~doc:"Mean time to repair.")
  in
  let pause_t =
    Arg.(
      value & flag
      & info [ "pause" ]
          ~doc:"Pause semantics: in-flight work survives an outage \
                (default: crash, work since the last event is lost).")
  in
  let horizon_opt_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Stop (cleanly, checkpointing) before advancing past this \
                date; a later --resume with a larger horizon continues.")
  in
  let stop_after_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after-events" ] ~docv:"N"
          ~doc:"Simulate a SIGKILL after $(docv) events: return without \
                flushing or checkpointing (torture-testing the resume \
                path).")
  in
  let action seed sites databases availability source rate n_jobs rule policy
      max_live queue_cap checkpoint every journal_dir seg_limit resume mtbf
      mttr pause horizon stop_after =
    Gripps_engine.Gc_tune.throughput ();
    let rule =
      match S.rule_of_string rule with
      | Some r -> r
      | None ->
        Printf.eprintf "unknown rule %s (use FCFS, SPT, SRPT, SWPT or SWRPT)\n"
          rule;
        exit 2
    in
    let policy =
      match S.policy_of_string policy with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown policy %s (use drop, block or shed)\n" policy;
        exit 2
    in
    if resume && checkpoint = None then begin
      Printf.eprintf "--resume requires --checkpoint\n";
      exit 2
    end;
    if resume && source = "-" then begin
      Printf.eprintf "--resume cannot re-open stdin; use a file source\n";
      exit 2
    end;
    (* The platform draw only uses the cluster/databank axes of the
       configuration; density and window are irrelevant to serving. *)
    let c = config ~sites ~databases ~availability ~density:1.0 ~horizon:60.0 in
    let real = W.Generator.platform (Gripps_rng.Splitmix.create seed) c in
    let platform = real.W.Generator.platform in
    let faults =
      match mtbf with
      | None -> []
      | Some mtbf ->
        let until =
          match horizon with
          | Some h -> h
          | None when source = "poisson" -> 2.0 *. float_of_int n_jobs /. rate
          | None ->
            Printf.eprintf "--mtbf with a file/stdin source needs --horizon \
                            to bound the fault window\n";
            exit 2
        in
        Fault.poisson
          (Gripps_rng.Splitmix.stream (Gripps_rng.Splitmix.create seed) 1)
          ~mtbf ~mttr ~machines:(Platform.num_machines platform) ~until
    in
    let loss = if pause then Fault.Pause else Fault.Crash in
    let source_desc =
      match source with
      | "poisson" ->
        Printf.sprintf "poisson:seed=%d:rate=%.17g:jobs=%d" seed rate n_jobs
      | "-" -> "stdin"
      | path -> "file:" ^ path
    in
    let cfg =
      S.config ~platform ~rule ~policy ~max_live ~queue_cap ~faults ~loss
        ?horizon ?checkpoint ~checkpoint_every:every ?journal_dir ~seg_limit
        ~source_desc ()
    in
    let report =
      if resume then
        S.resume ?stop_after_events:stop_after cfg (fun ~cursor ~clock ->
            match source with
            | "poisson" ->
              W.Source.poisson ~seed ~rate ~sizes:real.W.Generator.db_sizes
                ~jobs:n_jobs ~cursor ~clock ()
            | path -> W.Source.of_file ~skip:cursor path)
      else begin
        let src =
          match source with
          | "poisson" ->
            W.Source.poisson ~seed ~rate ~sizes:real.W.Generator.db_sizes
              ~jobs:n_jobs ()
          | "-" -> W.Source.of_channel ~name:"stdin" stdin
          | path -> W.Source.of_file path
        in
        Fun.protect
          ~finally:(fun () -> W.Source.close src)
          (fun () -> S.run ?stop_after_events:stop_after cfg src)
      end
    in
    let outcome =
      match report.S.outcome with
      | S.Drained -> "drained"
      | S.Horizon_reached -> "horizon"
      | S.Killed -> "killed"
    in
    Printf.printf "outcome: %s\n" outcome;
    let m = report.S.metrics in
    (* One stable line the kill-and-resume smoke test diffs verbatim. *)
    Printf.printf
      "metrics completed=%d sum_stretch=%.17g max_stretch=%.17g \
       sum_flow=%.17g max_flow=%.17g makespan=%.17g\n"
      m.S.completed m.S.sum_stretch m.S.max_stretch m.S.sum_flow m.S.max_flow
      m.S.makespan;
    Printf.printf
      "admission admitted=%d enqueued=%d dropped=%d shed=%d peak_live=%d \
       peak_queue=%d\n"
      report.S.admitted report.S.enqueued report.S.dropped report.S.shed
      report.S.peak_live report.S.peak_queue;
    Printf.printf
      "progress events=%d replans=%d checkpoints=%d source_cursor=%d \
       final_time=%.17g lost_work=%.17g\n"
      report.S.events report.S.replans report.S.checkpoints
      report.S.source_cursor report.S.final_time report.S.lost_work;
    Printf.printf "latency replan_p99_s=%.6g deadline_misses=%d\n"
      report.S.replan_p99_s report.S.deadline_misses;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-safe streaming scheduler daemon over a job source: \
          bounded-memory admission (drop/block/shed), periodic atomic \
          checkpoints, journal segments, and --resume to continue a killed \
          run bit-identically.")
    Term.(
      ret
        (const action $ seed_t $ sites_t $ databases_t $ availability_t
         $ source_t $ rate_t $ n_jobs_t $ rule_t $ policy_t $ max_live_t
         $ queue_cap_t $ checkpoint_t $ every_t $ journal_dir_t $ seg_limit_t
         $ resume_t $ mtbf_t $ mttr_t $ pause_t $ horizon_opt_t
         $ stop_after_t))

(* ---- federate ---------------------------------------------------------- *)

module Fed = Gripps_federation.Federation
module Frontend = Gripps_federation.Frontend

let federate_cmd =
  (* The federate axes default to the federation experiment's pinned
     configuration (8 single-processor sites so 2/4/8-shard partitions
     are meaningful), not the 3-site defaults of the paper commands. *)
  let fed_sites_t =
    Arg.(value & opt int 8 & info [ "sites" ] ~docv:"N" ~doc:"Number of clusters.")
  in
  let fed_databases_t =
    Arg.(
      value & opt int 4 & info [ "databases" ] ~docv:"N" ~doc:"Number of databanks.")
  in
  let fed_availability_t =
    Arg.(
      value
      & opt float 0.7
      & info [ "availability" ] ~docv:"P" ~doc:"Databank replication probability.")
  in
  let fed_density_t =
    Arg.(
      value & opt float 1.25 & info [ "density" ] ~docv:"D" ~doc:"Workload density.")
  in
  let shards_t =
    Arg.(
      value
      & opt int 2
      & info [ "shards" ] ~docv:"K"
          ~doc:"Partition the platform into $(docv) shards, each running its \
                own scheduler instance.")
  in
  let route_t =
    Arg.(
      value
      & opt string "srpt"
      & info [ "route" ] ~docv:"POLICY"
          ~doc:"Routing policy of the front-end: $(b,srpt) (immediate-dispatch \
                SRPT counting rule), $(b,greedy) (MCT-style least estimated \
                completion), $(b,load) (least pending normalized work) or \
                $(b,locality) (fastest shard hosting the databank).")
  in
  let migrate_t =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:"Rebalance unstarted jobs between shards at arrival \
                boundaries (work migration).")
  in
  let fed_scheduler_t =
    Arg.(
      value
      & opt string "SRPT"
      & info [ "scheduler" ] ~docv:"NAME"
          ~doc:"Local scheduler every shard runs, by registry name \
                (default SRPT — the Fox-Moseley baseline).")
  in
  let sweep_t =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Run the federation-gap experiment instead of a single run: \
                shard grid x every policy x migration on/off, ratios vs \
                the single-aggregate baseline, averaged over --instances.")
  in
  let shard_grid_t =
    Arg.(
      value
      & opt (list int) E.Federation.default_shard_grid
      & info [ "shard-grid" ] ~docv:"K1,K2,..."
          ~doc:"Shard counts the $(b,--sweep) mode covers.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"With $(b,--sweep): emit the machine-readable \
                BENCH_federate.json document on stdout instead of the table.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"With $(b,--sweep): also write the JSON document to $(docv).")
  in
  let action seed sites databases availability density horizon shards route
      migrate scheduler sweep shard_grid json out instances jobs =
    let policy =
      match Frontend.policy_of_string route with
      | Some p -> p
      | None ->
        Printf.eprintf
          "unknown routing policy %s (use srpt, greedy, load or locality)\n"
          route;
        exit 2
    in
    let sched =
      match scheduler_by_name scheduler with
      | Some s -> s
      | None ->
        Printf.eprintf "unknown scheduler %s; available: %s\n" scheduler
          (String.concat ", "
             (E.Sched_registry.panel_names E.Sched_registry.registry));
        exit 2
    in
    let cfg =
      W.Config.make ~sites ~processors_per_site:1 ~databases ~availability
        ~density ~horizon ()
    in
    if sweep then begin
      let progress k total = Printf.eprintf "\rinstance %d/%d%!" k total in
      let r =
        E.Federation.run ~config:cfg ~shard_grid ~scheduler:sched.Sim.fname
          ~pool:(pool_of_jobs jobs) ~progress ~seed ~instances ()
      in
      Printf.eprintf "\n%!";
      if json then print_string (E.Federation.to_json r)
      else print_string (E.Federation.render r);
      match out with
      | Some path ->
        E.Federation.write_json ~path r;
        Printf.eprintf "wrote %s\n%!" path
      | None -> ()
    end
    else begin
      let rng = Gripps_rng.Splitmix.create seed in
      let inst = W.Generator.instance rng cfg in
      Printf.printf "# %s\n# %d jobs, %d shards, route %s, migrate %s, local \
                     scheduler %s\n"
        (W.Config.describe cfg) (Instance.num_jobs inst) shards
        (Frontend.policy_name policy)
        (if migrate then "on" else "off")
        sched.Sim.fname;
      let baseline = (Sim.run_report_flat ~horizon:1e9 sched inst).Sim.metrics in
      let fed =
        Fed.run ~pool:(pool_of_jobs jobs) ~horizon:1e9 ~migrate ~policy ~shards
          ~scheduler:sched inst
      in
      Printf.printf "shard jobs: %s  (migrated: %d)\n"
        (String.concat " "
           (Array.to_list (Array.map string_of_int fed.Fed.shard_jobs)))
        fed.Fed.outcome.Frontend.migrations;
      let line name (m : Metrics.t) =
        Printf.printf "%-11s max-stretch %12.4f  sum-stretch %12.4f  \
                       makespan %10.2f\n"
          name m.Metrics.max_stretch m.Metrics.sum_stretch m.Metrics.makespan
      in
      line "aggregate" baseline;
      line "federated" fed.Fed.metrics;
      let max_r, sum_r = Fed.stretch_ratios ~baseline fed in
      Printf.printf "federation gap: max-stretch x%.3f, sum-stretch x%.3f\n"
        max_r sum_r
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "federate"
       ~doc:
         "Multi-cluster federation: partition the platform into shards, \
          route each arriving job through an immediate-dispatch front-end \
          (SRPT counting, greedy-MCT, load or locality), optionally \
          migrating unstarted work at arrival boundaries, and compare \
          stretch objectives against the single-aggregate run. With \
          --sweep, run the full shard x policy x migration grid.")
    Term.(
      ret
        (const action $ seed_t $ fed_sites_t $ fed_databases_t
         $ fed_availability_t $ fed_density_t $ horizon_t 900.0 $ shards_t
         $ route_t $ migrate_t $ fed_scheduler_t $ sweep_t $ shard_grid_t
         $ json_t $ out_t $ instances_t 5 $ jobs_t))

(* ---- validate --------------------------------------------------------- *)

let validate_cmd =
  let action seed instances horizon jobs =
    let progress k total = Printf.eprintf "\rjob %d/%d%!" k total in
    let results =
      E.Tables.sweep ~seed ~instances_per_config:instances ~progress
        ~pool:(pool_of_jobs jobs) ~horizon ()
    in
    Printf.eprintf "\n%!";
    let comps =
      List.map
        (fun (n, t) -> E.Paper_reference.compare_tables n t)
        (E.Tables.all_tables results)
    in
    print_string (E.Paper_reference.render_comparison comps);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Regenerate every table and report Spearman ranking agreement with \
          the published values.")
    Term.(ret (const action $ seed_t $ instances_t 3 $ horizon_t 30.0 $ jobs_t))

let main =
  Cmd.group
    (Cmd.info "gripps_cli" ~version:"1.0.0"
       ~doc:
         "Reproduction of 'Minimizing the stretch when scheduling flows of \
          biological requests' (Legrand, Su, Vivien).")
    [ run_cmd; optimal_cmd; table_cmd; tables_cmd; figure_cmd; overhead_cmd;
      perf_cmd; scale_cmd; faults_cmd; trace_cmd; serve_cmd; federate_cmd;
      validate_cmd ]

(* Exit-code contract (audited by test/cli_exit_codes.sh):
     0  success
     1  verification mismatch (perf cold/warm, scale divergence, trace --verify)
     2  usage or configuration error (unknown names, invalid parameters,
        unreadable files)
     3  data or guardrail error (malformed source stream, torn/corrupt
        checkpoint, solver budget exhausted, stalled daemon) *)
let () =
  let code =
    try Cmd.eval ~catch:false main with
    | Gripps_core.Stretch_solver.Budget_exhausted { stage; iters; elapsed } ->
      Printf.eprintf
        "error: solver budget exhausted in %s stage after %d iterations \
         (%.3fs)\n"
        stage iters elapsed;
      3
    | S.Stalled { time; live; queued } ->
      Printf.eprintf
        "error: daemon stalled at t=%.6f with %d live and %d queued jobs \
         that can never finish\n"
        time live queued;
      3
    | Metrics.Incomplete j ->
      Printf.eprintf "error: job %d never completed in the realized schedule\n" j;
      3
    | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      3
    | Invalid_argument msg ->
      Printf.eprintf "error: invalid argument: %s\n" msg;
      2
    | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  exit code
