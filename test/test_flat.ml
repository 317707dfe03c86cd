(* The flat (zero-allocation) engine path: a steady-state allocation
   budget pinned by the [sim.minor_words] counter, and a qcheck
   differential pinning the rule engine byte-identical to the resort
   oracle across all five priority rules, under crash faults, on
   a restricted-availability platform, sharded over a 2-domain pool. *)

open Gripps_model
open Gripps_engine
open Gripps_sched
module W = Gripps_workload
module Pool = Gripps_parallel.Pool

(* ---- zero-allocation steady state ------------------------------------- *)

let minor_words () =
  match Gripps_obs.Obs.counter_value "sim.minor_words" with
  | Some w -> w
  | None -> 0

(* The engine allocates nothing per event and nothing per job at the end
   of a run: the report takes the kernel's NaN-pending completion column
   as it is.  What remains is set-up and buffer growth, about 0.09 minor
   words per event on this workload.  A single leaked box in the hot
   loop adds >= 2 words to every event and blows the 0.5 budget, and so
   would an epilogue that boxed each completion date (5 words a job,
   about 2 words per event here). *)
let test_zero_allocation_steady_state () =
  Gripps_obs.Obs.with_level Gripps_obs.Obs.Counters (fun () ->
      let cfg =
        W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0
          ~horizon:50_000.0 ()
      in
      let inst = W.Generator.instance (Gripps_rng.Splitmix.create 42) cfg in
      let run () =
        Sim.run_report_flat ~horizon:1e12 ~record:false List_sched.flat_swpt
          inst
      in
      (* Warm the engine state and the buffer columns: first-run growth
         to the working size is the one allocation steady state keeps. *)
      ignore (run ());
      let mw0 = minor_words () in
      let gc0 = Gc.minor_words () in
      let rep = run () in
      let gc_dw = Gc.minor_words () -. gc0 in
      let dw = minor_words () - mw0 in
      let events = float_of_int rep.Sim.events in
      let per_event = float_of_int dw /. events in
      (* The raw [Gc.minor_words] delta around the run additionally
         covers anything the engine's own counter window might miss
         (argument passing, the report record itself). *)
      let gc_per_event = gc_dw /. events in
      Alcotest.(check bool)
        (Printf.sprintf "workload is a real steady state (%d events)"
           rep.Sim.events)
        true
        (rep.Sim.events > 5_000);
      Alcotest.(check bool)
        (Printf.sprintf "engine minor words per event <= 0.5 (measured %.2f)"
           per_event)
        true
        (per_event <= 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "Gc.minor_words per event <= 0.5 (measured %.2f)"
           gc_per_event)
        true
        (gc_per_event <= 0.5))

(* ---- differential: rule engine vs resort oracle ------------------------- *)

(* Two databanks, one machine of each flavor plus one hosting both, so
   the heap walk faces genuinely restricted availability. *)
let restricted_platform =
  Platform.make
    ~machines:
      [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
        Machine.make ~id:1 ~speed:2.0 ~databanks:[| false; true |];
        Machine.make ~id:2 ~speed:1.0 ~databanks:[| true; true |] ]
    ~num_databanks:2

let rule_pairs =
  [| (List_sched.flat_fcfs, Priority.fcfs);
     (List_sched.flat_spt, Priority.spt);
     (List_sched.flat_srpt, Priority.srpt);
     (List_sched.flat_swpt, Priority.swpt);
     (List_sched.flat_swrpt, Priority.swrpt) |]

let scenario_gen =
  QCheck2.Gen.(
    let* jobs =
      list_size (int_range 4 20)
        (let* release = map (fun i -> float_of_int i /. 2.0) (int_range 0 16) in
         let* size = map (fun i -> float_of_int i /. 2.0) (int_range 1 6) in
         let* databank = int_range 0 1 in
         return (release, size, databank))
    in
    (* At most one crash outage per machine, each with a recovery edge,
       so outages never overlap on a machine and no databank loses its
       replicas forever (which would stall the run, not schedule it). *)
    let* outages =
      flatten_l
        (List.map
           (fun machine ->
             let* present = bool in
             if not present then return None
             else
               let* t =
                 map (fun i -> float_of_int i /. 2.0) (int_range 0 14)
               in
               let* dur =
                 map (fun i -> float_of_int i /. 2.0) (int_range 1 4)
               in
               return (Some (machine, t, dur)))
           [ 0; 1; 2 ])
    in
    return (jobs, List.filter_map Fun.id outages))

let faults_of outages =
  List.concat_map
    (fun (machine, t, dur) ->
      [ { Fault.time = t; machine; up = false };
        { Fault.time = t +. dur; machine; up = true } ])
    outages
  |> Fault.normalize

let same_report (a : Sim.report) (b : Sim.report) =
  a.Sim.metrics = b.Sim.metrics
  && a.Sim.schedule.Schedule.segments = b.Sim.schedule.Schedule.segments
  && Schedule.same_completion a.Sim.schedule.Schedule.completion
       b.Sim.schedule.Schedule.completion
  && a.Sim.lost = b.Sim.lost
  && a.Sim.events = b.Sim.events
  && a.Sim.replans = b.Sim.replans

(* A 2-domain pool: the flat-vs-oracle comparison runs sharded across
   domains, which doubles as a determinism check on the parallel path. *)
let pool = Pool.create ~domains:2 ()

let prop_flat_matches_legacy =
  QCheck2.Test.make
    ~name:"flat plan buffer = legacy list path (5 rules, crashes, 2-domain pool)"
    ~count:60 scenario_gen
    (fun (jobs, outages) ->
      let inst =
        Instance.make ~platform:restricted_platform
          ~jobs:
            (List.mapi
               (fun i (release, size, databank) ->
                 Job.make ~id:i ~release ~size ~databank)
               jobs)
      in
      let faults = faults_of outages in
      Pool.map_list pool ~shards:(Array.length rule_pairs) (fun i ->
          let flat, rule = rule_pairs.(i) in
          let a =
            Sim.run_report_flat ~horizon:1e7 ~faults ~loss:Fault.Crash flat
              inst
          in
          let oracle =
            List_sched.resort_scheduler ~name:flat.Sim.fname ~rule
          in
          let b =
            Sim.run_report_flat ~horizon:1e7 ~faults ~loss:Fault.Crash oracle
              inst
          in
          same_report a b)
      |> List.for_all Fun.id)

let suite =
  ( "flat",
    [ Alcotest.test_case "steady state allocates nothing per event" `Quick
        test_zero_allocation_steady_state;
      QCheck_alcotest.to_alcotest prop_flat_matches_legacy ] )
