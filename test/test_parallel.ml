(* The multicore sweep engine: shard-boundary edge cases, the domain-safe
   counter path under contention, the differential property that a sweep
   is bit-identical at any pool size (including under injected faults),
   the index-derived seed discipline, and exception containment.

   The container running CI may expose a single core; every property here
   is about determinism, not speedup, so 2- and 4-domain pools are still
   meaningful — domains interleave on one core and any execution-order
   dependence would surface just the same. *)

open Gripps_engine
module Pool = Gripps_parallel.Pool
module Sweep = Gripps_parallel.Sweep
module Obs = Gripps_obs.Obs
module J = Obs.Journal
module W = Gripps_workload
module E = Gripps_experiments

(* Every test leaves the global observability singleton as it found it. *)
let sandboxed f () =
  let saved = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level saved;
      Obs.set_clock Unix.gettimeofday;
      J.set_sink None;
      J.clear ();
      Obs.Span.reset ())
    f

(* ---- shard-boundary edge cases ---------------------------------------- *)

let ints_of t pool = Sweep.run ~pool t

let test_edge_cases () =
  let square = Sweep.make ~length:0 (fun i -> i * i) in
  let pool4 = Pool.create ~domains:4 () in
  Alcotest.(check (list int)) "empty grid, sequential" [] (ints_of square Pool.sequential);
  Alcotest.(check (list int)) "empty grid, 4 domains" [] (ints_of square pool4);
  let one = Sweep.make ~length:1 (fun i -> i + 10) in
  Alcotest.(check (list int)) "one job, 4 domains" [ 10 ] (ints_of one pool4);
  (* Fewer jobs than domains: the pool must clamp, not spawn idle
     domains that return phantom shards. *)
  let two = Sweep.make ~length:2 (fun i -> i * 3) in
  Alcotest.(check (list int)) "jobs < domains" [ 0; 3 ] (ints_of two pool4);
  (* One more job than domains: some worker owns two shards. *)
  let five = Sweep.make ~length:5 (fun i -> i * i) in
  Alcotest.(check (list int)) "jobs = domains + 1" [ 0; 1; 4; 9; 16 ]
    (ints_of five pool4);
  Alcotest.(check int) "append length" 7
    (Sweep.length (Sweep.append two five));
  Alcotest.(check (list int)) "append runs left then right" [ 0; 3; 0; 1; 4; 9; 16 ]
    (ints_of (Sweep.append two five) pool4)

let test_progress_in_order () =
  let calls = ref [] in
  let progress k total = calls := (k, total) :: !calls in
  let r =
    Sweep.run ~pool:(Pool.create ~domains:3 ()) ~progress
      (Sweep.make ~length:5 (fun i -> i))
  in
  Alcotest.(check (list int)) "results in index order" [ 0; 1; 2; 3; 4 ] r;
  Alcotest.(check (list (pair int int)))
    "progress ticks once per job, in order"
    [ (1, 5); (2, 5); (3, 5); (4, 5); (5, 5) ]
    (List.rev !calls)

let test_negative_shards_rejected () =
  Alcotest.check_raises "negative length"
    (Invalid_argument "Sweep.make: negative length") (fun () ->
      ignore (Sweep.make ~length:(-1) (fun i -> i)))

(* ---- counter hammer: the Obs registry race fix ------------------------ *)

(* Before counters became domain-local, two domains bumping the same bare
   [int ref] lost increments.  Hammer the same counter from every shard
   and require the merged total to be exact. *)
let test_counter_hammer () =
  let c = Obs.Counter.make "test.parallel.hammer" in
  let per_shard = 100_000 in
  let hammer pool shards =
    Obs.Counter.reset c;
    Pool.map_reduce pool ~shards
      ~map:(fun _ ->
        for _ = 1 to per_shard do
          Obs.Counter.incr c
        done)
      ~init:() ~reduce:(fun () () -> ());
    Obs.Counter.value c
  in
  Alcotest.(check int) "2 domains, no lost increments" (2 * per_shard)
    (hammer (Pool.create ~domains:2 ()) 2);
  Alcotest.(check int) "4 domains x 8 shards, no lost increments"
    (8 * per_shard)
    (hammer (Pool.create ~domains:4 ()) 8);
  Alcotest.(check int) "sequential reference" (2 * per_shard)
    (hammer Pool.sequential 2)

(* Rat's fast-path tallies are Obs counters: a fixed mix of native and
   overflowing rational operations per shard must reach the coordinator
   whole, whichever domain ran the shard. *)
let test_rat_tallies_across_domains () =
  let module Q = Gripps_numeric.Rat in
  let big = Q.of_ints (max_int - 1) 1 in
  let mix _ =
    for i = 1 to 1000 do
      let small = Q.of_ints i (i + 1) in
      ignore (Sys.opaque_identity (Q.add small small));
      ignore (Sys.opaque_identity (Q.mul small big));
      if i mod 3 = 0 then ignore (Sys.opaque_identity (Q.add big big))
    done
  in
  let tallies pool shards =
    Obs.Counter.reset Q.fast_hits;
    Obs.Counter.reset Q.fast_falls;
    Pool.map_reduce pool ~shards ~map:mix ~init:() ~reduce:(fun () () -> ());
    (Obs.Counter.value Q.fast_hits, Obs.Counter.value Q.fast_falls)
  in
  let hits, falls = tallies Pool.sequential 1 in
  Alcotest.(check bool) "the mix takes both routes" true (hits > 0 && falls > 0);
  let sequential = tallies Pool.sequential 8 in
  Alcotest.(check (pair int int)) "8 shards = 8 x one shard" (8 * hits, 8 * falls)
    sequential;
  Alcotest.(check (pair int int)) "4 domains = sequential" sequential
    (tallies (Pool.create ~domains:4 ()) 8)

(* ---- differential harness: pool size is unobservable ------------------ *)

(* Everything a sweep result feeds into the paper's tables, minus the
   wall-clock fields (those legitimately vary run to run). *)
let projection (rs : E.Runner.instance_result list) =
  List.map
    (fun (r : E.Runner.instance_result) ->
      ( r.num_jobs,
        List.map
          (fun (m : E.Runner.measurement) ->
            (m.scheduler, m.max_stretch, m.sum_stretch, m.solver))
          r.measurements ))
    rs

(* Journal events that are pure simulation output.  [Span_closed] records
   carry wall-clock durations and are excluded; everything else must be
   byte-identical across pool sizes. *)
let sim_events events =
  List.filter (function J.Span_closed _ -> false | _ -> true) events

let small_config =
  W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.0
    ~horizon:6.0 ()

let run_sweep ~seed pool =
  Obs.with_level Obs.Events (fun () ->
      J.clear ();
      let rs =
        E.Tables.sweep ~seed ~instances_per_config:2 ~configs:[ small_config ]
          ~pool ~horizon:6.0 ()
      in
      let events = sim_events (J.events ()) in
      J.clear ();
      (projection rs, E.Render.table (E.Tables.table1 rs), events))

let prop_differential =
  QCheck2.Test.make
    ~name:"sweep is bit-identical at 1, 2 and 4 domains"
    ~count:3
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let p1, t1, j1 = run_sweep ~seed Pool.sequential in
      let p2, t2, j2 = run_sweep ~seed (Pool.create ~domains:2 ()) in
      let p4, t4, j4 = run_sweep ~seed (Pool.create ~domains:4 ()) in
      compare p1 p2 = 0 && compare p1 p4 = 0
      && String.equal t1 t2 && String.equal t1 t4
      && compare j1 j2 = 0 && compare j1 j4 = 0)

(* Resilience aggregates means over per-level sample lists; the merge
   must preserve the sequential summation order or the float means
   drift.  Render output is the user-facing byte-identity contract. *)
let test_resilience_differential () =
  let render pool =
    E.Resilience.render
      (E.Resilience.run ~mtbf_grid:[ 4.0; 2.0 ] ~mttr:0.5 ~pool ~seed:77
         ~instances:3 small_config)
  in
  let seq = render Pool.sequential in
  Alcotest.(check string) "2-domain resilience table" seq
    (render (Pool.create ~domains:2 ()));
  Alcotest.(check string) "4-domain resilience table" seq
    (render (Pool.create ~domains:4 ()))

(* The federation experiment nests differently from the table sweeps: the
   outer sweep shards instances across domains while every federated run
   inside an instance (front-end dispatch, migration, per-shard
   simulations) stays on the sequential pool.  The rendered gap table and
   the JSON artifact must still be byte-identical at any domain count. *)
let test_federation_differential () =
  let config =
    W.Config.make ~sites:4 ~processors_per_site:1 ~databases:2
      ~availability:0.8 ~density:1.25 ~horizon:40.0 ()
  in
  let run pool =
    let r =
      E.Federation.run ~config ~shard_grid:[ 2; 4 ] ~pool ~seed:91 ~instances:3
        ()
    in
    (E.Federation.render r, E.Federation.to_json r)
  in
  let seq_table, seq_json = run Pool.sequential in
  let t2, j2 = run (Pool.create ~domains:2 ()) in
  let t4, j4 = run (Pool.create ~domains:4 ()) in
  Alcotest.(check string) "2-domain federation table" seq_table t2;
  Alcotest.(check string) "4-domain federation table" seq_table t4;
  Alcotest.(check string) "2-domain federation json" seq_json j2;
  Alcotest.(check string) "4-domain federation json" seq_json j4

(* ---- seed discipline --------------------------------------------------- *)

(* More workers than shards: every shard still draws from its own
   index-derived stream, so an oversubscribed pool changes nothing. *)
let test_seed_discipline () =
  let run pool =
    let rs =
      E.Runner.run_config ~pool ~seed:123 ~instances:3 small_config
    in
    projection rs
  in
  let reference = run Pool.sequential in
  Alcotest.(check bool) "--jobs 1 = --jobs 8" true
    (compare reference (run (Pool.create ~domains:8 ())) = 0)

(* ---- exception containment -------------------------------------------- *)

let tiny_overrun =
  (* Second arrival past the horizon: the guard fires mid-run, after
     journal records exist. *)
  Gripps_model.Instance.make
    ~platform:(Gripps_model.Platform.single ~speed:1.0)
    ~jobs:
      [ Gripps_model.Job.make ~id:0 ~release:0.0 ~size:10.0 ~databank:0;
        Gripps_model.Job.make ~id:1 ~release:5.0 ~size:1.0 ~databank:0 ]

let test_horizon_exceeded_in_shard () =
  Obs.with_level Obs.Events (fun () ->
      J.clear ();
      let results =
        Pool.try_map (Pool.create ~domains:2 ()) ~shards:3 (fun i ->
            let horizon = if i = 1 then 1.0 else 1e9 in
            ignore
              (Sim.run_report_flat ~horizon Gripps_sched.List_sched.flat_swrpt
                 tiny_overrun))
      in
      (match results.(1) with
       | Error (Sim.Horizon_exceeded { journal; _ }) ->
         Alcotest.(check bool) "in-shard exception carries partial journal" true
           (match journal with J.Run_start _ :: _ -> true | _ -> false)
       | Error e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
       | Ok () -> Alcotest.fail "expected Horizon_exceeded in shard 1");
      Alcotest.(check bool) "sibling shards unaffected" true
        (match (results.(0), results.(2)) with Ok (), Ok () -> true | _ -> false);
      (* The failing shard's partial journal still merged, between its
         siblings' journals, in shard order. *)
      let starts =
        List.length
          (List.filter
             (function J.Run_start _ -> true | _ -> false)
             (J.events ()))
      in
      Alcotest.(check int) "all three shards' journals merged" 3 starts;
      J.clear ())

let test_map_reduce_reraises_lowest_index () =
  let pool = Pool.create ~domains:2 () in
  (try
     Pool.map_reduce pool ~shards:4
       ~map:(fun i -> if i >= 2 then failwith (string_of_int i))
       ~init:() ~reduce:(fun () () -> ());
     Alcotest.fail "expected Failure"
   with Failure i ->
     Alcotest.(check string) "lowest-index shard's exception wins" "2" i);
  (* The pool is stateless: the same pool value runs the next sweep. *)
  Alcotest.(check (list int)) "pool survives a failing sweep" [ 0; 1; 2 ]
    (Sweep.run ~pool (Sweep.make ~length:3 (fun i -> i)))

let suite =
  ( "parallel",
    [ Alcotest.test_case "shard-boundary edge cases" `Quick
        (sandboxed test_edge_cases);
      Alcotest.test_case "progress in job order" `Quick
        (sandboxed test_progress_in_order);
      Alcotest.test_case "negative length rejected" `Quick
        (sandboxed test_negative_shards_rejected);
      Alcotest.test_case "counter hammer across domains" `Quick
        (sandboxed test_counter_hammer);
      Alcotest.test_case "rat tallies across domains" `Quick
        (sandboxed test_rat_tallies_across_domains);
      QCheck_alcotest.to_alcotest prop_differential;
      Alcotest.test_case "resilience render identical across pools" `Slow
        (sandboxed test_resilience_differential);
      Alcotest.test_case "federation sweep identical across pools" `Slow
        (sandboxed test_federation_differential);
      Alcotest.test_case "seed discipline: oversubscribed pool" `Quick
        (sandboxed test_seed_discipline);
      Alcotest.test_case "horizon_exceeded contained in shard" `Quick
        (sandboxed test_horizon_exceeded_in_shard);
      Alcotest.test_case "map_reduce re-raises lowest index" `Quick
        (sandboxed test_map_reduce_reraises_lowest_index) ] )
