open Vp_core

let disk = Vp_cost.Disk.default

let w = Testutil.partsupp_workload

let n = 5

let paper_layout =
  (* The intro's P1(PartKey,SuppKey) P2(AvailQty,SupplyCost) P3(Comment). *)
  Partitioning.of_names Testutil.partsupp
    [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost" ]; [ "Comment" ] ]

let test_unnecessary_zero_for_exact_layout () =
  (* Every partition read by a query contains only referenced attributes. *)
  Alcotest.(check (float 1e-12)) "no waste" 0.0
    (Vp_metrics.Measures.unnecessary_data_read disk w paper_layout)

let test_unnecessary_for_row () =
  (* Row: Q1 reads 219 needs 20, Q2 reads 219 needs 215 (wait: AvailQty 4 +
     SupplyCost 8 + Comment 199 = 211). Read = 438, needed = 20 + 211. *)
  let expected = (438.0 -. 231.0) /. 438.0 in
  Alcotest.(check (float 1e-9)) "row waste" expected
    (Vp_metrics.Measures.unnecessary_data_read disk w (Partitioning.row n))

let test_joins () =
  (* Q1 touches P1,P2 (1 join); Q2 touches P2,P3 (1 join). *)
  Alcotest.(check (float 1e-12)) "avg joins" 1.0
    (Vp_metrics.Measures.avg_tuple_reconstruction_joins w paper_layout);
  Alcotest.(check (float 1e-12)) "row joins" 0.0
    (Vp_metrics.Measures.avg_tuple_reconstruction_joins w (Partitioning.row n));
  (* Column: Q1 touches 4 (3 joins), Q2 touches 3 (2 joins) -> 2.5. *)
  Alcotest.(check (float 1e-12)) "column joins" 2.5
    (Vp_metrics.Measures.avg_tuple_reconstruction_joins w (Partitioning.column n))

let test_improvement_formulas () =
  Alcotest.(check (float 1e-12)) "identity" 0.0
    (Vp_metrics.Measures.improvement_over disk w
       ~baseline:paper_layout paper_layout);
  let v = Vp_metrics.Measures.improvement_over disk w
      ~baseline:(Partitioning.row n) paper_layout
  in
  Alcotest.(check bool) "positive vs row" true (v > 0.0);
  Alcotest.(check (float 1e-12)) "of_costs" 0.25
    (Vp_metrics.Measures.improvement_of_costs ~baseline:4.0 3.0)

let test_distance_from_pmv_nonnegative () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "pmv below" true
        (Vp_metrics.Measures.distance_from_pmv disk w p >= -1e-9))
    [ paper_layout; Partitioning.row n; Partitioning.column n ]

let test_fragility_zero_same_disk () =
  Alcotest.(check (float 1e-12)) "no change" 0.0
    (Vp_metrics.Fragility.fragility ~old_disk:disk ~new_disk:disk w paper_layout)

let test_fragility_small_buffer_hurts () =
  let tiny = Vp_cost.Disk.with_buffer_size disk (Vp_cost.Disk.mb 0.08) in
  Alcotest.(check bool) "positive fragility" true
    (Vp_metrics.Fragility.fragility ~old_disk:disk ~new_disk:tiny w paper_layout
    > 0.0)

let test_fragility_aggregate_matches_single () =
  let tiny = Vp_cost.Disk.with_buffer_size disk (Vp_cost.Disk.mb 0.8) in
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "aggregate of one"
    (Vp_metrics.Fragility.fragility ~old_disk:disk ~new_disk:tiny w paper_layout)
    (Vp_metrics.Fragility.aggregate ~old_disk:disk ~new_disk:tiny
       [ (w, paper_layout) ])

let test_payoff () =
  let p =
    Vp_metrics.Payoff.compute disk w ~optimization_time:0.001
      ~baseline:(Partitioning.row n) paper_layout
  in
  Alcotest.(check bool) "creation positive" true (p.creation_time > 0.0);
  Alcotest.(check bool) "improves" true (p.improvement > 0.0);
  Alcotest.(check bool) "factor positive" true (p.factor > 0.0);
  (* Against itself: no improvement -> infinite pay-off. *)
  let same =
    Vp_metrics.Payoff.compute disk w ~optimization_time:0.001
      ~baseline:paper_layout paper_layout
  in
  Alcotest.(check bool) "never pays off" true (same.factor = infinity)

let test_payoff_negative_when_worse () =
  let p =
    Vp_metrics.Payoff.compute disk w ~optimization_time:0.001
      ~baseline:paper_layout (Partitioning.row n)
  in
  Alcotest.(check bool) "negative factor" true (p.factor < 0.0)

let test_aggregate_totals () =
  let entries =
    [
      { Vp_metrics.Measures.Aggregate.workload = w; partitioning = paper_layout };
      {
        Vp_metrics.Measures.Aggregate.workload = w;
        partitioning = Partitioning.row n;
      };
    ]
  in
  let total = Vp_metrics.Measures.Aggregate.total_cost disk entries in
  Alcotest.(check (Testutil.close ~eps:1e-9 ()))
    "sum of parts"
    (Vp_metrics.Measures.workload_cost disk w paper_layout
    +. Vp_metrics.Measures.workload_cost disk w (Partitioning.row n))
    total

(* --- property coverage of the metric edge cases --- *)

let gen_workload_and_partitioning =
  QCheck2.Gen.(
    let* w = Testutil.gen_workload 6 4 in
    let* p = Testutil.gen_partitioning 6 in
    return (w, p))

let prop_fragility_zero_when_disk_unchanged =
  QCheck2.Test.make ~count:100
    ~name:"fragility = 0 when the disk does not change"
    gen_workload_and_partitioning
    (fun (w, p) ->
      Vp_metrics.Fragility.fragility ~old_disk:disk ~new_disk:disk w p = 0.0)

let prop_unnecessary_within_unit_interval =
  QCheck2.Test.make ~count:100
    ~name:"unnecessary_data_read stays within [0, 1]"
    gen_workload_and_partitioning
    (fun (w, p) ->
      let v = Vp_metrics.Measures.unnecessary_data_read disk w p in
      v >= 0.0 && v <= 1.0)

(* A per-query PMV layout — the query's referenced attributes in one
   group, everything else in another — reads no unreferenced byte, so
   its waste is exactly 0, not merely close to it. *)
let prop_pmv_layout_reads_nothing_unnecessary =
  QCheck2.Test.make ~count:100
    ~name:"unnecessary_data_read = 0 on per-query PMV layouts"
    (Testutil.gen_workload 6 4)
    (fun w ->
      let table = Vp_core.Workload.table w in
      let n_attrs = Vp_core.Table.attribute_count table in
      Array.for_all
        (fun q ->
          let refs = Vp_core.Query.references q in
          let rest = Vp_core.Attr_set.diff (Vp_core.Attr_set.full n_attrs) refs in
          let groups =
            if Vp_core.Attr_set.is_empty rest then [ refs ] else [ refs; rest ]
          in
          let pmv = Vp_core.Partitioning.of_groups ~n:n_attrs groups in
          let single = Vp_core.Workload.make table [ q ] in
          Vp_metrics.Measures.unnecessary_data_read disk single pmv = 0.0)
        (Vp_core.Workload.queries w))

let test_distance_from_pmv_all_algorithms_tpch () =
  (* Every layout costs at least the per-materialized-view lower bound:
     the distance is non-negative for all seven algorithms on all of
     TPC-H, not just for the hand-picked layouts above. *)
  List.iter
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      List.iter
        (fun (a : Vp_core.Partitioner.t) ->
          let r = Vp_core.Partitioner.exec a (Testutil.request ~cost:oracle w) in
          let d =
            Vp_metrics.Measures.distance_from_pmv disk w
              r.Vp_core.Partitioner.Response.partitioning
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s >= PMV on %s" a.Vp_core.Partitioner.name
               (Vp_core.Table.name (Vp_core.Workload.table w)))
            true (d >= -1e-9))
        (Vp_algorithms.Registry.six @ Vp_algorithms.Registry.baselines))
    (Vp_benchmarks.Tpch.workloads ~sf:10.0)

let suite =
  [
    Alcotest.test_case "unnecessary: exact layout" `Quick
      test_unnecessary_zero_for_exact_layout;
    Alcotest.test_case "unnecessary: row" `Quick test_unnecessary_for_row;
    Alcotest.test_case "joins" `Quick test_joins;
    Alcotest.test_case "improvement formulas" `Quick test_improvement_formulas;
    Alcotest.test_case "distance from PMV" `Quick test_distance_from_pmv_nonnegative;
    Alcotest.test_case "fragility same disk" `Quick test_fragility_zero_same_disk;
    Alcotest.test_case "fragility small buffer" `Quick
      test_fragility_small_buffer_hurts;
    Alcotest.test_case "fragility aggregate" `Quick
      test_fragility_aggregate_matches_single;
    Alcotest.test_case "payoff" `Quick test_payoff;
    Alcotest.test_case "payoff negative" `Quick test_payoff_negative_when_worse;
    Alcotest.test_case "aggregate totals" `Quick test_aggregate_totals;
    Testutil.qtest prop_fragility_zero_when_disk_unchanged;
    Testutil.qtest prop_unnecessary_within_unit_interval;
    Testutil.qtest prop_pmv_layout_reads_nothing_unnecessary;
    Alcotest.test_case "distance from PMV: all algorithms, TPC-H" `Quick
      test_distance_from_pmv_all_algorithms_tpch;
  ]
