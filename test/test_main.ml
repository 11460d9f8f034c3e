(* Test entry point: one alcotest suite per module area. *)

(* The cluster tests spawn shard daemons, and the CRC-32 race test a
   fresh process, by re-execing this very binary; their sentinels must
   be checked before alcotest ever sees argv. *)
let () = Vp_router.Worker.maybe_run ()

let () = Test_robust.maybe_run_crc32_race ()

let () =
  Alcotest.run "vertpart"
    [
      ("attr_set", Test_attr_set.suite);
      ("core", Test_core.suite);
      ("partitioning", Test_partitioning.suite);
      ("enumeration", Test_enumeration.suite);
      ("cost", Test_cost.suite);
      ("delta_oracle", Test_delta_oracle.suite);
      ("algorithms", Test_algorithms.suite);
      ("substrates", Test_substrates.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("datagen", Test_datagen.suite);
      ("stream", Test_stream.suite);
      ("storage", Test_storage.suite);
      ("metrics", Test_metrics.suite);
      ("report", Test_report.suite);
      ("extensions", Test_extensions.suite);
      ("golden", Test_golden.suite);
      ("parser", Test_parser.suite);
      ("experiments", Test_experiments.suite);
      ("parallel", Test_parallel.suite);
      ("determinism", Test_determinism.suite);
      ("invariants", Test_invariants.suite);
      ("portfolio", Test_portfolio.suite);
      ("robust", Test_robust.suite);
      ("observe", Test_observe.suite);
      ("online", Test_online.suite);
      ("server", Test_server.suite);
      ("durability", Test_durability.suite);
      ("codec", Test_codec.suite);
      ("cluster", Test_cluster.suite);
      ("replies", Test_replies.suite);
    ]
