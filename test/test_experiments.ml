(* Experiment harness: statistics, ratio normalization, table aggregation
   and rendering — on tiny, fast configurations. *)

module E = Gripps_experiments
module W = Gripps_workload

let test_stats () =
  let s = E.Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-12)) "mean" 2.5 s.E.Stats.mean;
  Alcotest.(check (float 1e-9)) "sd" (sqrt 1.25) s.E.Stats.sd;
  Alcotest.(check (float 1e-12)) "max" 4.0 s.E.Stats.max;
  Alcotest.(check int) "count" 4 s.E.Stats.count;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (E.Stats.summarize []))

let test_quantile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-12)) "median" 3.0 (E.Stats.quantile xs ~q:0.5);
  Alcotest.(check (float 1e-12)) "min" 1.0 (E.Stats.quantile xs ~q:0.0);
  Alcotest.(check (float 1e-12)) "max" 5.0 (E.Stats.quantile xs ~q:1.0);
  Alcotest.(check (float 1e-12)) "interpolated" 1.5 (E.Stats.quantile xs ~q:0.125)

let tiny_config =
  W.Config.make ~sites:2 ~databases:2 ~availability:0.9 ~density:1.0 ~horizon:8.0 ()

let results = lazy (E.Runner.run_config ~seed:4242 ~instances:2 tiny_config)

let test_runner_portfolio () =
  let rs = Lazy.force results in
  Alcotest.(check int) "two instances" 2 (List.length rs);
  List.iter
    (fun (r : E.Runner.instance_result) ->
      (* Bender98 included (2 sites <= 3): full 11-row portfolio. *)
      Alcotest.(check int) "all schedulers" 11 (List.length r.E.Runner.measurements);
      List.iter
        (fun (m : E.Runner.measurement) ->
          Alcotest.(check bool) "positive stretch metrics" true
            (m.E.Runner.max_stretch > 0.0 && m.E.Runner.sum_stretch > 0.0))
        r.E.Runner.measurements)
    rs

let test_ratios_normalized () =
  let rs = Lazy.force results in
  List.iter
    (fun r ->
      let ratios = E.Runner.ratios r in
      (* Every ratio >= 1 and at least one equals 1 per metric. *)
      List.iter
        (fun (x : E.Runner.ratio) ->
          Alcotest.(check bool) "max ratio >= 1" true (x.E.Runner.max_ratio >= 1.0 -. 1e-9);
          Alcotest.(check bool) "sum ratio >= 1" true (x.E.Runner.sum_ratio >= 1.0 -. 1e-9))
        ratios;
      Alcotest.(check bool) "someone is best (max)" true
        (List.exists (fun (x : E.Runner.ratio) -> x.E.Runner.max_ratio < 1.0 +. 1e-9) ratios);
      Alcotest.(check bool) "someone is best (sum)" true
        (List.exists (fun (x : E.Runner.ratio) -> x.E.Runner.sum_ratio < 1.0 +. 1e-9) ratios))
    rs

let test_offline_near_best_max_ratio () =
  (* The exact Offline algorithm must (up to fp realization noise) be the
     best max-stretch row — the paper's anomaly, fixed. *)
  let rs = Lazy.force results in
  List.iter
    (fun r ->
      let ratios = E.Runner.ratios r in
      let offline =
        List.find (fun (x : E.Runner.ratio) -> x.E.Runner.scheduler = "Offline") ratios
      in
      Alcotest.(check bool) "offline ratio ~ 1" true
        (offline.E.Runner.max_ratio < 1.0 +. 1e-4))
    rs

let test_bender98_gated_on_big_platforms () =
  let big = { tiny_config with W.Config.sites = 10; horizon = 4.0 } in
  let rs = E.Runner.run_config ~seed:7 ~instances:1 big in
  List.iter
    (fun (r : E.Runner.instance_result) ->
      Alcotest.(check bool) "Bender98 skipped" false
        (List.exists
           (fun (m : E.Runner.measurement) -> m.E.Runner.scheduler = "Bender98")
           r.E.Runner.measurements))
    rs

let test_table_aggregation_and_render () =
  let rs = Lazy.force results in
  let t = E.Tables.table1 rs in
  Alcotest.(check int) "rows" 11 (List.length t.E.Tables.rows);
  Alcotest.(check int) "instances" 2 t.E.Tables.instances;
  let txt = E.Render.table t in
  Alcotest.(check bool) "has header" true
    (String.length txt > 0
     &&
     let contains sub =
       let n = String.length txt and m = String.length sub in
       let rec go i = i + m <= n && (String.sub txt i m = sub || go (i + 1)) in
       go 0
     in
     contains "Max-stretch" && contains "Sum-stretch" && contains "Offline")

let test_partitioned_tables () =
  let rs = Lazy.force results in
  let t = E.Tables.by_sites rs 2 in
  Alcotest.(check int) "partition keeps all instances" 2 t.E.Tables.instances;
  let empty = E.Tables.by_sites rs 20 in
  Alcotest.(check int) "missing partition is empty" 0 empty.E.Tables.instances

let test_figure_sweep_smoke () =
  let base =
    W.Config.make ~sites:2 ~databases:1 ~availability:1.0 ~density:1.0 ~horizon:6.0 ()
  in
  let samples =
    E.Figures.sweep ~seed:5 ~instances_per_density:2 ~densities:[ 0.5; 2.0 ] ~base ()
  in
  Alcotest.(check int) "two densities" 2 (List.length samples);
  List.iter
    (fun (s : E.Figures.sample) ->
      Alcotest.(check bool) "degradations non-negative" true
        (s.E.Figures.optimized_degradation >= 0.0
         && s.E.Figures.non_optimized_degradation >= 0.0))
    samples;
  let txt_a = E.Render.figure3a samples and txt_b = E.Render.figure3b samples in
  Alcotest.(check bool) "renders" true (String.length txt_a > 0 && String.length txt_b > 0)

let suite =
  ( "experiments",
    [ Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "quantile" `Quick test_quantile;
      Alcotest.test_case "runner portfolio" `Slow test_runner_portfolio;
      Alcotest.test_case "ratios normalized" `Slow test_ratios_normalized;
      Alcotest.test_case "offline best max ratio" `Slow test_offline_near_best_max_ratio;
      Alcotest.test_case "bender98 gated" `Slow test_bender98_gated_on_big_platforms;
      Alcotest.test_case "table aggregation" `Slow test_table_aggregation_and_render;
      Alcotest.test_case "partitioned tables" `Slow test_partitioned_tables;
      Alcotest.test_case "figure sweep smoke" `Slow test_figure_sweep_smoke ] )

(* Published-table reference data and the ranking comparison. *)
let test_paper_reference_lookup () =
  let t1 = E.Paper_reference.table 1 in
  Alcotest.(check int) "table 1 rows" 11 (List.length t1);
  let offline = List.hd t1 in
  Alcotest.(check (float 1e-9)) "offline max max (the paper's anomaly)" 1.0167
    offline.E.Paper_reference.max_max;
  Alcotest.(check int) "table 2 has no Bender98 row" 10
    (List.length (E.Paper_reference.table 2));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Paper_reference: table number outside 1-16") (fun () ->
      ignore (E.Paper_reference.table 17))

let test_spearman () =
  let s = E.Paper_reference.spearman in
  Alcotest.(check (float 1e-9)) "identical order" 1.0
    (s [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 30.0 ]);
  Alcotest.(check (float 1e-9)) "reversed order" (-1.0)
    (s [ 1.0; 2.0; 3.0 ] [ 30.0; 20.0; 10.0 ]);
  Alcotest.(check (float 1e-9)) "monotone transform invariant" 1.0
    (s [ 1.0; 2.0; 3.0; 4.0 ] [ 1.0; 8.0; 27.0; 64.0 ]);
  Alcotest.(check bool) "ties handled" true
    (abs_float (s [ 1.0; 1.0; 2.0 ] [ 1.0; 1.0; 2.0 ] -. 1.0) < 1e-9);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Paper_reference.spearman: length mismatch") (fun () ->
      ignore (s [ 1.0 ] [ 1.0; 2.0 ]))

let test_comparison_plumbing () =
  let rs = Lazy.force results in
  let t = E.Tables.table1 rs in
  let c = E.Paper_reference.compare_tables 1 t in
  Alcotest.(check int) "all 11 heuristics matched" 11 c.E.Paper_reference.common_rows;
  Alcotest.(check bool) "correlations in range" true
    (abs_float c.E.Paper_reference.spearman_max <= 1.0
     && abs_float c.E.Paper_reference.spearman_sum <= 1.0);
  let txt = E.Paper_reference.render_comparison [ c ] in
  Alcotest.(check bool) "renders" true (String.length txt > 0)

let suite =
  ( fst suite,
    snd suite
    @ [ Alcotest.test_case "paper reference lookup" `Quick test_paper_reference_lookup;
        Alcotest.test_case "spearman" `Quick test_spearman;
        Alcotest.test_case "comparison plumbing" `Slow test_comparison_plumbing ] )

(* End-to-end integration on generator-produced instances: every portfolio
   scheduler yields a valid complete schedule, and the exact offline
   optimum lower-bounds every realized max-stretch. *)
let prop_pipeline_integration =
  QCheck2.Test.make ~name:"full pipeline on generated instances" ~count:8
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 3))
    (fun (seed, density_q) ->
      let config =
        W.Config.make ~sites:2 ~databases:2 ~availability:0.8
          ~density:(float_of_int density_q) ~horizon:6.0 ()
      in
      let rng = Gripps_rng.Splitmix.create seed in
      let inst = Gripps_workload.Generator.instance rng config in
      let opt =
        Gripps_numeric.Rat.to_float (Gripps_core.Offline.optimal_max_stretch inst)
      in
      List.for_all
        (fun s ->
          let sched = (Gripps_engine.Sim.run_report_flat ~horizon:1e9 s inst).Gripps_engine.Sim.schedule in
          let m = Gripps_model.Metrics.of_schedule sched in
          Gripps_model.Schedule.validate sched = []
          && Gripps_model.Schedule.all_completed sched
          && m.Gripps_model.Metrics.max_stretch >= opt -. (1e-5 *. Float.max 1.0 opt))
        (E.Sched_registry.schedulers E.Sched_registry.paper_panel))

let suite =
  (fst suite, snd suite @ [ QCheck_alcotest.to_alcotest prop_pipeline_integration ])

(* Scale experiment: one tiny size, full panel, legacy oracle on — the
   identity bit is the differential gate CI relies on. *)
let test_scale_smoke () =
  let r = E.Scale.run ~sizes:[ 60 ] ~legacy_cap:100 ~seed:9 () in
  Alcotest.(check int) "one entry per panel scheduler"
    (List.length E.Scale.panel_names) (List.length r.E.Scale.entries);
  List.iter
    (fun (e : E.Scale.entry) ->
      Alcotest.(check bool) "realized jobs > 0" true (e.E.Scale.jobs > 0);
      Alcotest.(check bool) "events counted" true (e.E.Scale.events > 0);
      match e.E.Scale.legacy with
      | None -> Alcotest.fail "legacy oracle should run below the cap"
      | Some l ->
        Alcotest.(check bool) "byte-identical to resort" true
          l.E.Scale.l_identical)
    r.E.Scale.entries;
  Alcotest.(check bool) "report identity bit" true r.E.Scale.identical;
  (* The JSON artifact carries the gate CI greps for. *)
  let js = E.Scale.to_json r in
  let contains sub =
    let n = String.length js and m = String.length sub in
    let rec go i = i + m <= n && (String.sub js i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json gate present" true
    (contains "\"identical\": true");
  Alcotest.(check bool) "render mentions the verdict" true
    (String.length (E.Scale.render r) > 0)

(* The CI scale-smoke cell: n = 10^3 at seed 42, the whole panel.  The
   loop and the epilogue allocate nothing per event or per job, so the
   headline run's minor words are set-up (0.39-0.42 per event).  The cap
   catches a per-event allocation (one leaked box costs at least 2
   words/event) or an epilogue that boxes each completion date (5 words
   a job, about 2 words/event). *)
let test_scale_gates () =
  let r = E.Scale.run ~sizes:[ 1000 ] ~seed:42 () in
  Alcotest.(check bool) "rule engine = resort oracle" true r.E.Scale.identical;
  List.iter
    (fun (e : E.Scale.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words/event <= 1.0" e.E.Scale.scheduler
           e.E.Scale.mw_per_event)
        true (e.E.Scale.mw_per_event <= 1.0))
    r.E.Scale.entries

let test_scale_above_cap_skips_legacy () =
  let r = E.Scale.run ~sizes:[ 60 ] ~legacy_cap:10 ~schedulers:[ "SRPT" ] ~seed:9 () in
  (match r.E.Scale.entries with
   | [ e ] -> Alcotest.(check bool) "no oracle above cap" true (e.E.Scale.legacy = None)
   | _ -> Alcotest.fail "expected exactly one entry");
  Alcotest.(check bool) "identity bit vacuously true" true r.E.Scale.identical

let suite =
  ( fst suite,
    snd suite
    @ [ Alcotest.test_case "scale smoke" `Slow test_scale_smoke;
        Alcotest.test_case "scale gates at n = 1000" `Quick test_scale_gates;
        Alcotest.test_case "scale above legacy cap" `Quick
          test_scale_above_cap_skips_legacy ] )
