(* Workload [scale]: one instance of 10^5 jobs, [Scale]'s 10^5 cell, run
   by the five flat priority rules with schedule recording off, under
   the throughput GC posture.  It drives the batch engine, the kernel and
   the indexed heaps with zero solver work, on a working set past the L2.

   Not [Scale]'s 10^6 cell: a unit of it took 3-10 s, so a run timed two
   or three of them and followed the host's slow spells; a 10^5 unit
   takes 0.3-1 s at the same cost per event, and a run takes the median
   of dozens. *)

open Harness
module W = Gripps_workload
module Sim = Gripps_engine.Sim
module LS = Gripps_sched.List_sched
module M = Gripps_model.Metrics

let name = "scale"
let target_jobs = 100_000

(* The platform is the one [Scale] pins for this size (its seed 42), so
   every seed runs the same machines; the seed draws the job stream.  At
   seed 42 the instance is exactly [Scale]'s. *)
let platform_seed = 42

let base_config =
  W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon:1.0 ()

let stream seed = Gripps_rng.Splitmix.create (seed + (1_000_003 * target_jobs))

type inputs = Gripps_model.Instance.t

(* The first unit after set-up runs about 7% slower than the rest. *)
let warmup = 1

let setup ~seed : inputs =
  let r = W.Generator.platform (stream platform_seed) base_config in
  let rng = stream seed in
  (* Draw (and discard) the seed's own platform so the job stream starts
     where [Scale.instance_for] starts it. *)
  ignore (W.Generator.platform rng base_config);
  let total_speed = Gripps_model.Platform.total_speed r.W.Generator.platform in
  let inv_sizes = Array.fold_left (fun s z -> s +. (1.0 /. z)) 0.0 r.W.Generator.db_sizes in
  let rate =
    base_config.W.Config.density *. total_speed *. inv_sizes
    /. float_of_int base_config.W.Config.databases
  in
  let c = { base_config with W.Config.horizon = float_of_int target_jobs /. rate } in
  let rec draw () = match W.Generator.jobs rng c r with [] -> draw () | js -> js in
  Gripps_model.Instance.make ~platform:r.W.Generator.platform ~jobs:(draw ())

let rules = [| LS.Rule_fcfs; LS.Rule_spt; LS.Rule_srpt; LS.Rule_swpt; LS.Rule_swrpt |]
let rule_names = [| "FCFS"; "SPT"; "SRPT"; "SWPT"; "SWRPT" |]

type run = { rule : string; jobs : int; events : int; replans : int; metrics : M.t option }
type output = run array

let cb = cb_tally (Array.length rules)

let unit ~traced (inst : inputs) : output =
  Array.mapi
    (fun k r ->
      let s = LS.flat_scheduler r in
      let s = if traced then timed cb k s else s in
      let go () =
        match Sim.run_report_flat ~horizon:1e12 ~record:false s inst with
        | rep ->
          { rule = rule_names.(k); jobs = Gripps_model.Instance.num_jobs inst;
            events = rep.Sim.events; replans = rep.Sim.replans;
            metrics = Some rep.Sim.metrics }
        | exception e ->
          complain "scale: %s raised %s" rule_names.(k) (Printexc.to_string e);
          { rule = rule_names.(k); jobs = 0; events = 0; replans = 0; metrics = None }
      in
      if traced then span ("sim.run." ^ rule_names.(k)) go else go ())
    rules

let events (o : output) = Array.fold_left (fun acc r -> acc + r.events) 0 o

(* ---- correctness ---------------------------------------------------------- *)

let as_ref (r : run) =
  let k f = r.rule ^ "." ^ f in
  [ Refcheck.int (k "jobs") r.jobs; Refcheck.int (k "events") r.events;
    Refcheck.int (k "replans") r.replans ]
  @
  match r.metrics with
  | None -> []
  | Some x ->
    [ Refcheck.float (k "makespan") x.M.makespan;
      Refcheck.float (k "max_flow") x.M.max_flow;
      Refcheck.float (k "sum_flow") x.M.sum_flow;
      Refcheck.float (k "max_stretch") x.M.max_stretch;
      Refcheck.float (k "sum_stretch") x.M.sum_stretch ]

let capture ~seed (o : output) =
  write_ref name ~seed "ref" (Refcheck.to_string (List.concat_map as_ref (Array.to_list o)))

type reference = Refcheck.t

let load_reference ~seed = Option.map Refcheck.of_string (read_ref name ~seed "ref")

(* One operation per rule run.  With a reference for the seed, a run
   must reproduce its counts and metrics bit for bit; at any seed every
   job arrives and completes exactly once, so events = 2 x jobs. *)
let check (rf : reference option) (o : output) =
  Array.iter
    (fun r ->
      let ok_ref =
        match rf with
        | None -> true
        | Some rf ->
          matches ~what:("scale " ^ r.rule)
            ~expected:(List.filter (fun (k, _) -> String.starts_with ~prefix:(r.rule ^ ".") k) rf)
            (as_ref r)
      in
      let ok_inv = r.metrics <> None && r.events = 2 * r.jobs in
      if not ok_inv then complain "scale: %s: %d events for %d jobs" r.rule r.events r.jobs;
      attempt 1 ~failed:(if ok_ref && ok_inv then 0 else 1))
    o

(* ---- per-layer figures of the traced unit ---------------------------------- *)

let traced_unit ~check inst =
  cb_reset cb;
  let gc0 = gc_mark () in
  let root = Spans.enter spans (Spans.intern spans name) in
  let o = unit ~traced:true inst in
  Spans.leave spans root;
  let gc1 = gc_mark () in
  check o;
  let kids = Spans.children spans in
  let events = float_of_int (events o) in
  let replans = float_of_int (Array.fold_left (fun acc r -> acc + r.replans) 0 o) in
  let run_span k = "sim.run." ^ rule_names.(k) in
  let ks = List.init (Array.length rules) Fun.id in
  let sum f = List.fold_left (fun acc k -> acc +. f k) 0.0 ks in
  let sched_s = sum (fun k -> Clock.to_s cb.ns.(k)) in
  let calls = sum (fun k -> float_of_int cb.calls.(k)) in
  let sim_self_s = sum (fun k -> Clock.to_s (Spans.self_total_ns spans kids (run_span k))) in
  let layers =
    List.map (fun k -> m ("sched.plan_s." ^ rule_names.(k)) "s" (Clock.to_s cb.ns.(k))) ks
    @ List.map
        (fun k ->
          m ("sim.events_per_s." ^ rule_names.(k)) "events/s"
            (ratio (float_of_int o.(k).events) (Clock.to_s (Spans.total_ns spans (run_span k)))))
        ks
    @ [ m "sched.plan_s" "s" sched_s;
        m "sched.ns_per_replan" "ns" (ratio (sched_s *. 1e9) calls);
        m "sim.self_s" "s" sim_self_s;
        m "sim.ns_per_event" "ns" (ratio (sim_self_s *. 1e9) events);
        m "sim.events" "count" events;
        m "sim.replans" "count" replans;
        m "sim.events_per_replan" "ratio" (ratio events replans);
        m "sim.runs" "count" (float_of_int (Array.length rules)) ]
    @ gc_metrics ~gc0 ~gc1 ~events
  in
  (root, layers)
