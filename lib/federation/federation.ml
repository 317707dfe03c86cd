open Gripps_model
open Gripps_engine
module Pool = Gripps_parallel.Pool

type report = {
  shards : Shard.t array;
  policy : Frontend.policy;
  migrate : bool;
  scheduler : string;
  outcome : Frontend.outcome;
  shard_jobs : int array;
  shard_reports : Sim.report array;
  completion : float array;
  metrics : Metrics.t;
  lost : float array;
  replans : int;
  events : int;
  journal : Gripps_obs.Obs.Journal.event list;
}

let run ?(pool = Pool.sequential) ?(faults = []) ?loss ?horizon
    ?(migrate = false) ?(policy = Frontend.Srpt) ~shards:k ~scheduler inst =
  let shards = Shard.partition (Instance.platform inst) ~shards:k in
  let outcome = Frontend.dispatch ~migrate ~policy shards inst in
  let n = Instance.num_jobs inst in
  (* Routed jobs per shard, ascending global id. *)
  let routed = Array.make k [] in
  for j = n - 1 downto 0 do
    let s = outcome.Frontend.assignment.(j) in
    routed.(s) <- (j, outcome.Frontend.release.(j)) :: routed.(s)
  done;
  let subs =
    Array.init k (fun s -> Shard.sub_instance shards.(s) inst routed.(s))
  in
  (* Each shard's simulation is a pure function of its sub-instance and
     projected fault slice; the pool merges results (and observability
     deltas) in shard-index order, so the merge below is deterministic at
     any domain count. *)
  let shard_reports =
    Array.of_list
      (Pool.map_list pool ~shards:k (fun s ->
           let sub, _ = subs.(s) in
           let faults = Shard.project_faults shards.(s) faults in
           Sim.run_report_flat ?horizon ~faults ?loss scheduler sub))
  in
  let completion = Array.make n nan in
  let lost = Array.make n 0.0 in
  for s = 0 to k - 1 do
    let _, map = subs.(s) in
    let r = shard_reports.(s) in
    for l = 0 to Array.length map - 1 do
      completion.(map.(l)) <- r.Sim.schedule.Schedule.completion.(l);
      lost.(map.(l)) <- r.Sim.lost.(l)
    done
  done;
  for j = 0 to n - 1 do
    if Float.is_nan completion.(j) then raise (Metrics.Incomplete j)
  done;
  let metrics = Metrics.of_completion inst ~completion in
  let journal =
    List.concat_map
      (fun (r : Sim.report) -> r.Sim.journal)
      (Array.to_list shard_reports)
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 shard_reports in
  {
    shards;
    policy;
    migrate;
    scheduler = scheduler.Sim.fname;
    outcome;
    shard_jobs = Array.map (fun (sub, _) -> Instance.num_jobs sub) subs;
    shard_reports;
    completion;
    metrics;
    lost;
    replans = sum (fun r -> r.Sim.replans);
    events = sum (fun r -> r.Sim.events);
    journal;
  }

let stretch_ratios ~baseline r =
  let ratio v b = if b > 0.0 then v /. b else 1.0 in
  ( ratio r.metrics.Metrics.max_stretch baseline.Metrics.max_stretch,
    ratio r.metrics.Metrics.sum_stretch baseline.Metrics.sum_stretch )
