(* Workload [table1]: the paper's Table 1 — the 162 configurations of the
   factorial design, the eleven-scheduler panel (Bender98 capped as in
   Runner), aggregated and rendered.  Nearly all of its time is scheduler
   callbacks, and most of that is solver work; the engine and heaps take
   under 1%.

   Sixteen instances per configuration over a 2.5 s arrival window, not
   one over 10 s: a Table 1's cost is ruled by a few dense instances
   whose solver work swings with their job stream.  With one instance
   per configuration the wall time spread by 20% (interquartile range /
   median) over twelve seeds; sixteen smaller ones cost about twice as
   much and spread by under 5%. *)

open Harness
module E = Gripps_experiments
module W = Gripps_workload
module Sim = Gripps_engine.Sim
module Obs = Gripps_obs.Obs
module Reg = E.Sched_registry
module S = Gripps_core.Stretch_solver

let name = "table1"
let horizon = 2.5
let per_config = 16
let panel = Array.of_list Reg.paper_panel

type inputs = (W.Config.t * Gripps_model.Instance.t) array

(* No warm-up unit: the first Table 1 of a run takes as long as the
   next, and one more would cost 8-19 s. *)
let warmup = 0

(* Config [i]'s platform is pinned: it is drawn from the stream of seed 42
   for that config, whatever the seed, and the seed draws only the job
   streams, one per instance, with the seed arithmetic of [Tables.sweep]. *)
let platform_seed = 42

let instance ~seed i k c =
  let stream s = Gripps_rng.Splitmix.create (s + (7919 * i) + (1_000_003 * k)) in
  let pinned = W.Generator.platform (Gripps_rng.Splitmix.create (platform_seed + (7919 * i))) c in
  let rng = stream seed in
  let rec draw () = match W.Generator.jobs rng c pinned with [] -> draw () | js -> js in
  Gripps_model.Instance.make ~platform:pinned.W.Generator.platform ~jobs:(draw ())

let setup ~seed : inputs =
  W.Config.paper_grid ~horizon ()
  |> List.mapi (fun i c -> List.init per_config (fun k -> (c, instance ~seed i k c)))
  |> List.concat |> Array.of_list

(* Per-scheduler callback time and calls, indexed like [panel]. *)
let cb = cb_tally (Array.length panel)

type output = {
  results : E.Runner.instance_result array;
  errors : int array;  (* per instance: scheduler runs that raised *)
  text : string;
  events : int;
}

let sim_events () = Option.value ~default:0 (Obs.counter_value "sim.events")

(* One Table 1.  Each scheduler runs on its own, so a run that raises
   fails alone. *)
let unit ~traced (inputs : inputs) =
  let wrap name f = if traced then span name f else f () in
  let e0 = sim_events () in
  let errors = Array.make (Array.length inputs) 0 in
  let results =
    Array.mapi
      (fun i (config, inst) ->
        let one k (e : Reg.entry) =
          let s = if traced then timed cb k e.Reg.scheduler else e.Reg.scheduler in
          wrap ("run." ^ e.Reg.name) (fun () ->
              match E.Runner.run_instance ~schedulers:[ s ] config inst with
              | r -> r.E.Runner.measurements
              | exception ex ->
                complain "table1: config %d: %s raised %s" i e.Reg.name
                  (Printexc.to_string ex);
                errors.(i) <- errors.(i) + 1;
                [])
        in
        let measurements =
          wrap "runner.instance" (fun () ->
              List.concat (List.mapi one (Array.to_list panel)))
        in
        { E.Runner.config; num_jobs = Gripps_model.Instance.num_jobs inst;
          measurements })
      inputs
  in
  let table = wrap "experiments.table1" (fun () -> E.Tables.table1 (Array.to_list results)) in
  let text = wrap "experiments.render" (fun () -> E.Render.table table) in
  { results; errors; text; events = sim_events () - e0 }

let events o = o.events

(* ---- correctness ---------------------------------------------------------- *)

(* Everything the scheduler runs of one configuration return, bit for
   bit, digested per configuration so a mismatch names it. *)
let digest results i =
  List.init per_config (fun k -> results.((i * per_config) + k))
  |> List.concat_map (fun (r : E.Runner.instance_result) -> r.E.Runner.measurements)
  |> List.map (fun (x : E.Runner.measurement) ->
         Printf.sprintf "%s %h %h" x.E.Runner.scheduler x.E.Runner.max_stretch
           x.E.Runner.sum_stretch)
  |> String.concat ";" |> Gripps_obs.Fsio.fnv64

let configs o = Array.length o.results / per_config
let key i = Printf.sprintf "config.%03d" i

let capture ~seed o =
  write_ref name ~seed "ref"
    (Refcheck.to_string (List.init (configs o) (fun i -> Refcheck.string (key i) (digest o.results i))));
  write_ref name ~seed "txt" o.text

(* Offline realizes the instance's exact optimum, so no scheduler may
   beat its max-stretch beyond the float rounding of a realized
   schedule.  The engine completes a job within a 1e-9-relative sliver,
   and ties between Offline and the online solvers land up to ~4e-9
   apart (seeds 1-8); 1e-6 leaves room for that and nothing else. *)
let beats_offline i (r : E.Runner.instance_result) =
  let ms = r.E.Runner.measurements in
  match List.find_opt (fun (x : E.Runner.measurement) -> x.E.Runner.scheduler = "Offline") ms with
  | None -> List.length ms
  | Some off ->
    let floor = off.E.Runner.max_stretch *. (1.0 -. 1e-6) in
    let beaten = List.filter (fun (x : E.Runner.measurement) -> x.E.Runner.max_stretch < floor) ms in
    List.iter
      (fun (x : E.Runner.measurement) ->
        complain "table1: config %d: %s max-stretch %.17g beats Offline's %.17g" i
          x.E.Runner.scheduler x.E.Runner.max_stretch off.E.Runner.max_stretch)
      beaten;
    List.length beaten

type reference = { kv : Refcheck.t; text : string }

let load_reference ~seed =
  match (read_ref name ~seed "ref", read_ref name ~seed "txt") with
  | Some kv, Some text -> Some { kv = Refcheck.of_string kv; text }
  | _ -> None

(* One operation per scheduler run (26,784 per unit).  With a reference
   for the seed, a configuration's runs fail together when its digest
   differs; at any seed a run fails when it raises or beats Offline. *)
let check (rf : reference option) o =
  for i = 0 to configs o - 1 do
    let idx = List.init per_config (fun k -> (i * per_config) + k) in
    let runs =
      List.fold_left
        (fun acc j -> acc + List.length o.results.(j).E.Runner.measurements + o.errors.(j))
        0 idx
    in
    let errors = List.fold_left (fun acc j -> acc + o.errors.(j)) 0 idx in
    let beaten = List.fold_left (fun acc j -> acc + beats_offline i o.results.(j)) 0 idx in
    let differs =
      match rf with
      | Some rf when List.assoc_opt (key i) rf.kv <> Some (digest o.results i) ->
        complain "table1: config %d differs from the reference" i;
        true
      | _ -> false
    in
    attempt runs ~failed:(if differs then runs else min runs (errors + beaten))
  done;
  (* With a reference, the rendering is one more operation. *)
  Option.iter
    (fun rf ->
      let differs = o.text <> rf.text in
      if differs then complain "table1: rendered Table 1 differs from the reference";
      attempt 1 ~failed:(if differs then 1 else 0))
    rf

(* ---- per-layer figures of the traced unit ---------------------------------- *)

let traced_unit ~check inputs =
  cb_reset cb;
  let span_s n = Obs.Span.total n in
  let exact0 = span_s "solver.exact" and float0 = span_s "solver.float" in
  let counters0 = Obs.counters () in
  let gc0 = gc_mark () in
  let root = Spans.enter spans (Spans.intern spans name) in
  let o = unit ~traced:true inputs in
  Spans.leave spans root;
  let gc1 = gc_mark () in
  let counters1 = Obs.counters () in
  check o;
  let delta n =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt n counters1)
      - Option.value ~default:0 (List.assoc_opt n counters0))
  in
  let kids = Spans.children spans in
  let ms = Array.to_list o.results |> List.concat_map (fun r -> r.E.Runner.measurements) in
  let sum p f =
    List.fold_left (fun acc (x : E.Runner.measurement) -> if p x then acc +. f x else acc) 0.0 ms
  in
  let solver f = sum (fun _ -> true) (fun x -> float_of_int (f x.E.Runner.solver)) in
  (* Callback time net of the solver time the runner measured inside the
     same runs. *)
  let plan_s k =
    Clock.to_s cb.ns.(k)
    -. sum (fun x -> x.E.Runner.scheduler = panel.(k).Reg.name) (fun x -> x.E.Runner.solver_time)
  in
  let ks = List.init (Array.length panel) Fun.id in
  let core, sched = List.partition (fun k -> panel.(k).Reg.kind <> Reg.Heuristic) ks in
  let sim_self_s =
    List.fold_left
      (fun acc k -> acc +. Clock.to_s (Spans.self_total_ns spans kids ("run." ^ panel.(k).Reg.name)))
      0.0 ks
  in
  let sched_s = List.fold_left (fun acc k -> acc +. plan_s k) 0.0 sched in
  let sched_calls = List.fold_left (fun acc k -> acc + cb.calls.(k)) 0 sched in
  let events = delta "sim.events" and replans = delta "sim.replans" in
  let instance_ms =
    Array.of_list
      (Spans.fold_named spans "runner.instance"
         (fun acc i -> (float_of_int (Spans.duration spans i) *. 1e-6) :: acc)
         [])
  in
  let p50, _ = Stats.percentile (Stats.sorted instance_ms) 5000 in
  let tail = Option.get (Stats.tail instance_ms) in
  if tail.Stats.bp <> 9900 then failwith "table1: the tail rule no longer picks p99";
  let hits = solver (fun s -> s.S.rat_fast_hits) and falls = solver (fun s -> s.S.rat_fast_falls) in
  let layers =
    List.map (fun k -> m ("core.plan_s." ^ panel.(k).Reg.name) "s" (plan_s k)) core
    @ List.map (fun k -> m ("sched.plan_s." ^ panel.(k).Reg.name) "s" (plan_s k)) sched
    @ [ m "solver.exact_s" "s" (span_s "solver.exact" -. exact0);
        m "solver.float_s" "s" (span_s "solver.float" -. float0);
        m "solver.exact_probes" "count" (solver (fun s -> s.S.exact_probes));
        m "solver.float_probes" "count" (solver (fun s -> s.S.float_probes));
        m "solver.graph_builds" "count" (solver (fun s -> s.S.graph_builds));
        m "solver.warm_updates" "count" (solver (fun s -> s.S.warm_updates));
        m "solver.augmenting_paths" "count" (solver (fun s -> s.S.augmenting_paths));
        m "flow.augmentations" "count" (delta "flow.augmentations");
        m "rat.fast_hits" "count" hits;
        m "rat.fast_falls" "count" falls;
        m "rat.fast_hit_ratio" "ratio" (ratio hits (hits +. falls));
        m "online.replans" "count" (delta "online.replans");
        m "online.degraded_replans" "count" (delta "online.degraded_replans");
        m "sched.plan_s" "s" sched_s;
        m "sched.ns_per_replan" "ns" (ratio (sched_s *. 1e9) (float_of_int sched_calls));
        m "sim.self_s" "s" sim_self_s;
        m "sim.ns_per_event" "ns" (ratio (sim_self_s *. 1e9) events);
        m "sim.events" "count" events;
        m "sim.replans" "count" replans;
        m "sim.events_per_replan" "ratio" (ratio events replans);
        m "sim.runs" "count" (delta "sim.runs");
        m "experiments.render_s" "s" (Clock.to_s (Spans.total_ns spans "experiments.render"));
        m "runner.instance_p50_ms" "ms" p50;
        m "runner.instance_p99_ms" "ms" tail.Stats.value;
        m "runner.instance_samples" "count" (float_of_int tail.Stats.samples) ]
    @ gc_metrics ~gc0 ~gc1 ~events
  in
  (root, layers)
