let () =
  Alcotest.run "gripps"
    [ Test_bigint.suite; Test_rat.suite; Test_collections.suite; Test_rng.suite;
      Test_lp.suite; Test_flow.suite; Test_model.suite; Test_objectives.suite;
      Test_engine.suite;
      Test_faults.suite; Test_sched.suite; Test_flat.suite; Test_core.suite; Test_workload.suite;
      Test_experiments.suite; Test_snapshot.suite; Test_obs.suite;
      Test_parallel.suite; Test_federation.suite; Test_service.suite;
      Test_unrelated.suite; Test_bytes.suite ]
