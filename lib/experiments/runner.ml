open Gripps_model
open Gripps_engine
open Gripps_core
module W = Gripps_workload
module Obs = Gripps_obs.Obs

type measurement = {
  scheduler : string;
  max_stretch : float;
  sum_stretch : float;
  objectives : (Metrics.objective * float) list;
  wall_time : float;
  solver_time : float;
  solver : Stretch_solver.stats;
}

type instance_result = {
  config : W.Config.t;
  num_jobs : int;
  measurements : measurement list;
}

(* Timing wants span data (that is where solver seconds come from), so a
   run measured at the default Counters level is temporarily promoted to
   Spans; an ambient Events level is left alone so traced runs still
   journal. *)
let with_spans f =
  let l = Obs.level () in
  Obs.with_level (if l = Obs.Counters then Obs.Spans else l) f

let run_instance ?(bender98_max_sites = 3) ?(bender98_max_jobs = 60)
    ?(schedulers = Sched_registry.schedulers Sched_registry.paper_panel)
    ?(objectives = []) ?(faults = []) ?(loss = Fault.Crash) ?(guard = 1e9)
    config inst =
  let measurements =
    List.filter_map
      (fun s ->
        if
          s.Sim.fname = "Bender98"
          && (config.W.Config.sites > bender98_max_sites
              || Instance.num_jobs inst > bender98_max_jobs)
        then None
        else begin
          Stretch_solver.reset_stats ();
          with_spans @@ fun () ->
          let solver0 = Obs.Span.total_prefix "solver." in
          let t0 = Unix.gettimeofday () in
          (* An over-tight guard is a data problem (the run cannot deliver
             complete metrics), not a usage error: surface it as the same
             typed [Metrics.Incomplete] every metrics consumer already
             maps to exit 3, naming the first job left pending. *)
          let report =
            try Sim.run_report_flat ~horizon:guard ~faults ~loss s inst
            with Sim.Horizon_exceeded { pending; _ } as e ->
              (match pending with
              | j :: _ -> raise (Metrics.Incomplete j)
              | [] -> raise e)
          in
          let m = report.Sim.metrics in
          let wall_time = Unix.gettimeofday () -. t0 in
          let solver_time = Obs.Span.total_prefix "solver." -. solver0 in
          let solver = Stretch_solver.stats () in
          let objective_values =
            match objectives with
            | [] -> []
            | objs ->
              let sched = report.Sim.schedule in
              for j = 0 to Instance.num_jobs inst - 1 do
                if not (Schedule.is_completed sched j) then
                  raise (Metrics.Incomplete j)
              done;
              let completion = sched.Schedule.completion in
              List.map (fun o -> (o, Metrics.eval o inst ~completion)) objs
          in
          Some
            { scheduler = s.Sim.fname;
              max_stretch = m.Metrics.max_stretch;
              sum_stretch = m.Metrics.sum_stretch;
              objectives = objective_values;
              wall_time;
              solver_time;
              solver }
        end)
      schedulers
  in
  { config; num_jobs = Instance.num_jobs inst; measurements }

let value (m : measurement) = function
  | Metrics.Max_stretch -> Some m.max_stretch
  | Metrics.Sum_stretch -> Some m.sum_stretch
  | o -> List.assoc_opt o m.objectives

type ratio = { scheduler : string; max_ratio : float; sum_ratio : float }

let ratios r =
  match r.measurements with
  | [] -> []
  | ms ->
    let best f = List.fold_left (fun acc m -> Float.min acc (f m)) infinity ms in
    let best_max = best (fun m -> m.max_stretch) in
    let best_sum = best (fun m -> m.sum_stretch) in
    (* Degenerate single-job instances can have zero stretch spread; guard
       divisions so ratios stay meaningful. *)
    let div a b = if b > 0.0 then a /. b else 1.0 in
    List.map
      (fun (m : measurement) ->
        { scheduler = m.scheduler;
          max_ratio = div m.max_stretch best_max;
          sum_ratio = div m.sum_stretch best_sum })
      ms

let ratios_for obj r =
  let vals =
    List.filter_map
      (fun (m : measurement) ->
        Option.map (fun v -> (m.scheduler, v)) (value m obj))
      r.measurements
  in
  match vals with
  | [] -> []
  | _ ->
    let best = List.fold_left (fun acc (_, v) -> Float.min acc v) infinity vals in
    let div a b = if b > 0.0 then a /. b else 1.0 in
    List.map (fun (s, v) -> (s, div v best)) vals

let instance_job ?bender98_max_sites ?bender98_max_jobs ?schedulers ?objectives
    ?guard ~seed config k =
  (* One independent stream per instance, derived from the index alone:
     results do not shift when the instance count changes, and shard [k]
     of a parallel sweep replays identically wherever it runs. *)
  let rng = Gripps_rng.Splitmix.create (seed + (1_000_003 * k)) in
  let inst = W.Generator.instance rng config in
  (* Fault draws continue the same stream, after the workload draws. *)
  let faults =
    W.Generator.fault_trace rng config
      ~machines:(Platform.num_machines (Instance.platform inst))
  in
  let loss =
    match config.W.Config.faults with
    | Some f -> f.W.Config.loss
    | None -> Fault.Crash
  in
  run_instance ?bender98_max_sites ?bender98_max_jobs ?schedulers ?objectives
    ?guard ~faults ~loss config inst

let config_sweep ?bender98_max_sites ?bender98_max_jobs ?schedulers ?objectives
    ?guard ~seed ~instances config =
  Gripps_parallel.Sweep.make ~length:instances
    (instance_job ?bender98_max_sites ?bender98_max_jobs ?schedulers ?objectives
       ?guard ~seed config)

let run_config ?bender98_max_sites ?bender98_max_jobs ?schedulers ?objectives
    ?guard ?pool ~seed ~instances config =
  Gripps_parallel.Sweep.run ?pool
    (config_sweep ?bender98_max_sites ?bender98_max_jobs ?schedulers ?objectives
       ?guard ~seed ~instances config)
