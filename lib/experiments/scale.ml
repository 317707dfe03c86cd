(* Large-n scale experiment: how fast does each priority scheduler chew
   through events as the workload grows?

   For each target size n the generator's arrival window is solved from
   its own rate formula (per-databank rate = density × total speed /
   (databases × size_d), independent of the window), so one pinned seed
   yields one instance of ≈ n jobs shared by every scheduler.  Each
   (n, scheduler) cell times the flat zero-allocation path in its
   benchmarking posture (no schedule recording) — the headline events/s —
   and reads the engine's [sim.minor_words] counter around the run to
   report allocations per event.  Below [legacy_cap] it also runs the
   flat path with recording on and the legacy resort-from-scratch oracle
   on the same instance, and checks all three runs are identical —
   metrics, segment list and completion vector compared float by float
   (completion dates by their bits).  The [identical] bit of the report
   gates CI.  Each cell also measures bytes per job of its size — the
   instance, an empty rule engine, and the minor words of set-up — all
   deterministic counts. *)

open Gripps_model
open Gripps_engine
open Gripps_sched
module W = Gripps_workload

type spec = {
  s_name : string;
  rule : Priority.rule;
  flat : List_sched.flat_rule;
}

let panel =
  [ { s_name = "FCFS"; rule = Priority.fcfs; flat = List_sched.Rule_fcfs };
    { s_name = "SPT"; rule = Priority.spt; flat = List_sched.Rule_spt };
    { s_name = "SRPT"; rule = Priority.srpt; flat = List_sched.Rule_srpt };
    { s_name = "SWPT"; rule = Priority.swpt; flat = List_sched.Rule_swpt };
    { s_name = "SWRPT"; rule = Priority.swrpt; flat = List_sched.Rule_swrpt } ]

let panel_names = List.map (fun s -> s.s_name) panel
let default_sizes = [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
let default_legacy_cap = 10_000

type legacy_run = {
  l_wall_s : float;
  l_events_per_s : float;
  l_speedup : float;    (* legacy wall / flat wall *)
  l_identical : bool;   (* flat (both modes) = resort *)
}

type entry = {
  n_target : int;
  scheduler : string;
  jobs : int;           (* realized job count (Poisson draw around n) *)
  events : int;
  replans : int;
  wall_s : float;
  events_per_s : float;
  mw_per_event : float; (* minor-heap words allocated per event *)
  instance_bytes_per_job : float;
  engine_bytes_per_job : float;
  setup_minor_words_per_job : float;
  legacy : legacy_run option;
}

type report = {
  seed : int;
  domains : int;
  sizes : int list;
  legacy_cap : int;
  repeats : int;        (* timed headline runs per cell (min-of-N wall) *)
  entries : entry list;
  identical : bool;     (* conjunction over every legacy comparison *)
}

let base_config =
  W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0
    ~horizon:1.0 ()

(* Below one job the window is 0 (a NaN rate) or negative (every draw
   empty, so [draw] would retry forever). *)
let check_size n =
  if n <= 0 then invalid_arg (Printf.sprintf "Scale: n = %d is not positive" n)

(* The instance of target size [n]: a pure function of (seed, n), so a
   parallel sweep regenerates it identically in whichever domain the
   (n, scheduler) cell lands. *)
let instance_for ~seed n =
  check_size n;
  let rng = Gripps_rng.Splitmix.create (seed + (1_000_003 * n)) in
  let r = W.Generator.platform rng base_config in
  let total_speed = Platform.total_speed r.W.Generator.platform in
  let inv_sizes = Array.fold_left (fun s z -> s +. (1.0 /. z)) 0.0 r.W.Generator.db_sizes in
  let total_rate =
    base_config.W.Config.density *. total_speed *. inv_sizes
    /. float_of_int base_config.W.Config.databases
  in
  let c = { base_config with W.Config.horizon = float_of_int n /. total_rate } in
  let rec draw () =
    match W.Generator.jobs rng c r with [] -> draw () | js -> js
  in
  Instance.make ~platform:r.W.Generator.platform ~jobs:(draw ())

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let same_report (a : Sim.report) (b : Sim.report) =
  a.Sim.metrics = b.Sim.metrics
  && a.Sim.schedule.Schedule.segments = b.Sim.schedule.Schedule.segments
  && Schedule.same_completion a.Sim.schedule.Schedule.completion
       b.Sim.schedule.Schedule.completion

let minor_words () =
  match Gripps_obs.Obs.counter_value "sim.minor_words" with
  | Some w -> w
  | None -> 0

(* Reachable bytes per job of an instance, and of an empty rule engine
   over it beyond the instance itself (the engine reads the release and
   databank columns in place).  The engine is built after the timed runs,
   so it lands in memory they have already sized. *)
let bytes_per_job inst words =
  float_of_int (words * (Sys.word_size / 8))
  /. float_of_int (max 1 (Instance.num_jobs inst))

let instance_bytes_per_job inst =
  bytes_per_job inst (Obj.reachable_words (Obj.repr inst))

let engine_bytes_per_job inst rule =
  let e =
    List_sched.engine ~rule ~platform:(Instance.platform inst)
      ~capacity:(Instance.num_jobs inst) ~release:(Instance.releases inst)
      ~db:(Instance.databanks inst)
  in
  bytes_per_job inst
    (Obj.reachable_words (Obj.repr (inst, e)) - Obj.reachable_words (Obj.repr inst))

let measure_cell ~seed ~legacy_cap ~repeats n spec =
  (* [Gc.minor_words] is per domain, like the counter below. *)
  let setup0 = Gc.minor_words () in
  let inst = instance_for ~seed n in
  let setup_mw = Gc.minor_words () -. setup0 in
  let flat = List_sched.flat_scheduler spec.flat in
  (* Headline run: flat path, no schedule recording.  The minor-words
     delta is domain-local (the counter lives in the measuring domain's
     observability state), so cells sharded across a pool don't bleed
     into each other. *)
  let mw0 = minor_words () in
  let wall_s, rep =
    time (fun () -> Sim.run_report_flat ~horizon:1e12 ~record:false flat inst)
  in
  let mw = minor_words () - mw0 in
  (* Min-of-N against run-to-run scheduling noise: the run is
     deterministic, so only the wall clock needs repeating. *)
  let wall_s = ref wall_s in
  for _ = 2 to repeats do
    let w, _ =
      time (fun () -> Sim.run_report_flat ~horizon:1e12 ~record:false flat inst)
    in
    if w < !wall_s then wall_s := w
  done;
  let wall_s = !wall_s in
  let per_s w = if w > 0.0 then float_of_int rep.Sim.events /. w else infinity in
  let legacy =
    if n > legacy_cap then None
    else begin
      let frec =
        Sim.run_report_flat ~horizon:1e12 ~record:true flat inst
      in
      let oracle = List_sched.resort_scheduler ~name:spec.s_name ~rule:spec.rule in
      let l_wall_s, l_rep =
        time (fun () -> Sim.run_report_flat ~horizon:1e12 oracle inst)
      in
      Some
        { l_wall_s;
          l_events_per_s =
            (if l_wall_s > 0.0 then float_of_int l_rep.Sim.events /. l_wall_s
             else infinity);
          l_speedup = (if wall_s > 0.0 then l_wall_s /. wall_s else infinity);
          l_identical =
            same_report frec l_rep
            && frec.Sim.metrics = rep.Sim.metrics
            && Schedule.same_completion frec.Sim.schedule.Schedule.completion
                 rep.Sim.schedule.Schedule.completion }
    end
  in
  { n_target = n; scheduler = spec.s_name; jobs = Instance.num_jobs inst;
    events = rep.Sim.events; replans = rep.Sim.replans; wall_s;
    events_per_s = per_s wall_s;
    mw_per_event =
      (if rep.Sim.events > 0 then float_of_int mw /. float_of_int rep.Sim.events
       else 0.0);
    instance_bytes_per_job = instance_bytes_per_job inst;
    engine_bytes_per_job = engine_bytes_per_job inst spec.flat;
    setup_minor_words_per_job =
      setup_mw /. float_of_int (max 1 (Instance.num_jobs inst));
    legacy }

let run ?(sizes = default_sizes) ?(legacy_cap = default_legacy_cap)
    ?(schedulers = panel_names) ?(repeats = 1) ?pool ?progress ~seed () =
  let repeats = max 1 repeats in
  List.iter
    (fun name ->
      if not (List.mem name panel_names) then
        invalid_arg
          (Printf.sprintf "Scale.run: unknown rule %s (the panel is %s)" name
             (String.concat ", " panel_names)))
    schedulers;
  List.iter check_size sizes;
  let specs = List.filter (fun s -> List.mem s.s_name schedulers) panel in
  let cells = List.concat_map (fun n -> List.map (fun s -> (n, s)) specs) sizes in
  let sweep =
    Gripps_parallel.Sweep.of_list cells (fun (n, s) ->
        measure_cell ~seed ~legacy_cap ~repeats n s)
  in
  let entries = Gripps_parallel.Sweep.run ?pool ?progress sweep in
  let domains =
    match pool with
    | Some p -> Gripps_parallel.Pool.domains p
    | None -> 1
  in
  { seed; domains; sizes; legacy_cap; repeats; entries;
    identical =
      List.for_all
        (fun e -> match e.legacy with None -> true | Some l -> l.l_identical)
        entries }

let failing_cells r =
  List.filter_map
    (fun e ->
      match e.legacy with
      | Some l when not l.l_identical -> Some (e.n_target, e.scheduler)
      | Some _ | None -> None)
    r.entries

(* ---- output ----------------------------------------------------------- *)

let to_json r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"gripps-bench-scale/4\",\n";
  add "  \"seed\": %d, \"domains\": %d, \"legacy_cap\": %d, \"repeats\": %d,\n"
    r.seed r.domains r.legacy_cap r.repeats;
  add "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      add "    {\"n\": %d, \"scheduler\": %S, \"jobs\": %d, \"events\": %d, \
           \"replans\": %d,\n"
        e.n_target e.scheduler e.jobs e.events e.replans;
      add "     \"wall_s\": %.6f, \"events_per_s\": %.1f, \"mw_per_event\": %.3f,\n"
        e.wall_s e.events_per_s e.mw_per_event;
      add "     \"instance_bytes_per_job\": %.2f, \"engine_bytes_per_job\": %.2f, \
           \"setup_minor_words_per_job\": %.2f"
        e.instance_bytes_per_job e.engine_bytes_per_job
        e.setup_minor_words_per_job;
      (match e.legacy with
       | None -> add ", \"legacy\": null}"
       | Some l ->
         add ",\n     \"legacy\": {\"wall_s\": %.6f, \"events_per_s\": %.1f, \
              \"speedup\": %.2f, \"identical\": %b}}"
           l.l_wall_s l.l_events_per_s l.l_speedup l.l_identical);
      add "%s\n" (if i = List.length r.entries - 1 then "" else ","))
    r.entries;
  add "  ],\n  \"identical\": %b\n}\n" r.identical;
  Buffer.contents buf

(* Atomic, like {!Perf.write_json}: no torn BENCH_scale.json on a kill. *)
let write_json ~path r = Gripps_obs.Fsio.write_atomic ~path (to_json r)

let render r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Scale experiment (seed %d, %d domain%s; legacy oracle up to n = %d; \
       best of %d)\n"
    r.seed r.domains (if r.domains = 1 then "" else "s") r.legacy_cap r.repeats;
  add "%8s %-6s %8s %9s %9s %12s %7s %12s %8s %5s\n" "n" "sched" "jobs"
    "events" "wall(s)" "events/s" "mw/ev" "legacy ev/s" "speedup" "same";
  List.iter
    (fun e ->
      match e.legacy with
      | Some l ->
        add "%8d %-6s %8d %9d %9.3f %12.0f %7.2f %12.0f %7.1fx %5b\n" e.n_target
          e.scheduler e.jobs e.events e.wall_s e.events_per_s e.mw_per_event
          l.l_events_per_s l.l_speedup l.l_identical
      | None ->
        add "%8d %-6s %8d %9d %9.3f %12.0f %7.2f %12s %8s %5s\n" e.n_target
          e.scheduler e.jobs e.events e.wall_s e.events_per_s e.mw_per_event
          "-" "-" "-")
    r.entries;
  add "all legacy comparisons identical: %b\n" r.identical;
  (* The footprint depends on n only: one line per size. *)
  add "%8s %16s %14s %20s\n" "n" "instance B/job" "engine B/job"
    "set-up minor w/job";
  List.iter
    (fun n ->
      match List.find_opt (fun e -> e.n_target = n) r.entries with
      | Some e ->
        add "%8d %16.2f %14.2f %20.2f\n" n e.instance_bytes_per_job
          e.engine_bytes_per_job e.setup_minor_words_per_job
      | None -> ())
    r.sizes;
  Buffer.contents buf
