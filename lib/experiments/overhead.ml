module W = Gripps_workload
module S = Gripps_core.Stretch_solver

type entry = {
  scheduler : string;
  wall : Stats.summary;
  solver_wall : Stats.summary;
  solver : S.stats;  (* summed over the scheduler's runs *)
}

let sum_stats (a : S.stats) (b : S.stats) =
  { S.exact_probes = a.S.exact_probes + b.S.exact_probes;
    float_probes = a.S.float_probes + b.S.float_probes;
    graph_builds = a.S.graph_builds + b.S.graph_builds;
    warm_updates = a.S.warm_updates + b.S.warm_updates;
    augmenting_paths = a.S.augmenting_paths + b.S.augmenting_paths;
    rat_fast_hits = a.S.rat_fast_hits + b.S.rat_fast_hits;
    rat_fast_falls = a.S.rat_fast_falls + b.S.rat_fast_falls }

let zero_stats =
  { S.exact_probes = 0; float_probes = 0; graph_builds = 0; warm_updates = 0;
    augmenting_paths = 0; rat_fast_hits = 0; rat_fast_falls = 0 }

let measure ?(seed = 20060303) ?(instances = 3) ?(horizon = 60.0) ?pool () =
  let config =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon ()
  in
  let results = Runner.run_config ?pool ~seed ~instances config in
  List.filter_map
    (fun name ->
      let runs =
        List.concat_map
          (fun (r : Runner.instance_result) ->
            List.filter_map
              (fun (m : Runner.measurement) ->
                if m.scheduler = name then
                  Some (m.wall_time, m.solver_time, m.solver)
                else None)
              r.measurements)
          results
      in
      match runs with
      | [] -> None
      | _ ->
        Some
          { scheduler = name;
            wall = Stats.summarize (List.map (fun (w, _, _) -> w) runs);
            solver_wall = Stats.summarize (List.map (fun (_, s, _) -> s) runs);
            solver =
              List.fold_left
                (fun acc (_, _, s) -> sum_stats acc s)
                zero_stats runs })
    (Sched_registry.panel_names Sched_registry.paper_panel)

type scaling_sample = {
  jobs : int;
  offline_s : float;
  online_s : float;
  bender98_s : float;
}

let scaling ?(seed = 20060404) () =
  List.map
    (fun horizon ->
      let config =
        W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon ()
      in
      let rng = Gripps_rng.Splitmix.create seed in
      let inst = Gripps_workload.Generator.instance rng config in
      let time s =
        let t0 = Unix.gettimeofday () in
        ignore (Gripps_engine.Sim.run_report_flat ~horizon:1e9 s inst);
        Unix.gettimeofday () -. t0
      in
      { jobs = Gripps_model.Instance.num_jobs inst;
        offline_s = time Gripps_core.Offline.scheduler;
        online_s = time Gripps_core.Online_lp.online;
        bender98_s = time Gripps_core.Bender.bender98 })
    [ 15.0; 30.0; 60.0; 120.0 ]
