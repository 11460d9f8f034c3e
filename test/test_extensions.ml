(* Tests for the extension modules: the selection-aware cost model, query
   grouping and replicated layouts. *)

open Vp_core

let disk = Vp_cost.Disk.default

(* --- Selection model --- *)

let sel attrs selectivity =
  { Vp_cost.Selection_model.attributes = Attr_set.of_list attrs; selectivity }

let q = Testutil.partsupp_q1 (* refs {0,1,2,3} *)

let table = Testutil.partsupp

let layout =
  Partitioning.of_names table
    [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost" ]; [ "Comment" ] ]

let test_selection_full_selectivity_not_cheaper () =
  (* With selectivity 1.0 the fetch plan degenerates to at least the scan
     cost, so the selection-aware cost is >= the base cost minus buffer-
     sharing differences; sanity: it must be positive and finite. *)
  let c = Vp_cost.Selection_model.query_cost disk table layout q (sel [ 0 ] 1.0) in
  Alcotest.(check bool) "positive" true (c > 0.0 && Float.is_finite c)

let test_selection_tiny_selectivity_cheaper () =
  let base = Vp_cost.Io_model.query_cost disk table layout q in
  let aware =
    Vp_cost.Selection_model.query_cost disk table layout q (sel [ 0 ] 1e-7)
  in
  Alcotest.(check bool) "fetch plan wins" true (aware < base)

let test_selection_monotone_in_selectivity () =
  let cost s =
    Vp_cost.Selection_model.query_cost disk table layout q (sel [ 0 ] s)
  in
  let previous = ref 0.0 in
  List.iter
    (fun s ->
      let c = cost s in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %g" s)
        true
        (c >= !previous -. 1e-12);
      previous := c)
    [ 1e-8; 1e-6; 1e-4; 1e-2; 1.0 ]

let test_selection_validation () =
  Alcotest.check_raises "attrs outside footprint"
    (Invalid_argument
       "Selection_model: selection attributes outside query footprint")
    (fun () ->
      ignore (Vp_cost.Selection_model.query_cost disk table layout q (sel [ 4 ] 0.5)));
  Alcotest.check_raises "bad selectivity"
    (Invalid_argument "Selection_model: selectivity outside [0, 1]") (fun () ->
      ignore
        (Vp_cost.Selection_model.query_cost disk table layout q (sel [ 0 ] 2.0)))

let test_selection_crossover_formula () =
  let x =
    Vp_cost.Selection_model.crossover_selectivity disk ~rows:60_000_000
      ~row_size:4
  in
  (* The paper's ballpark: a handful of 1e-6..1e-4. *)
  Alcotest.(check bool) "in the expected decade range" true
    (x > 1e-7 && x < 1e-3)

let test_selection_workload_none_matches_base () =
  let w = Testutil.partsupp_workload in
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "no selections = base model"
    (Vp_cost.Io_model.workload_cost disk w layout)
    (Vp_cost.Selection_model.workload_cost disk w (fun _ -> None) layout)

(* --- Query grouping --- *)

let test_jaccard () =
  Alcotest.(check (float 1e-12)) "overlap 2/5" (2.0 /. 5.0)
    (Vp_algorithms.Query_grouping.jaccard Testutil.partsupp_q1
       Testutil.partsupp_q2);
  Alcotest.(check (float 1e-12)) "self" 1.0
    (Vp_algorithms.Query_grouping.jaccard Testutil.partsupp_q1
       Testutil.partsupp_q1)

let test_grouping_k1 () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "orders" in
  let groups = Vp_algorithms.Query_grouping.group w ~k:1 in
  Alcotest.(check int) "one group" 1 (List.length groups);
  Alcotest.(check int) "all queries" (Workload.query_count w)
    (List.length (List.hd groups))

let test_grouping_partition_property () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "lineitem" in
  List.iter
    (fun k ->
      let groups = Vp_algorithms.Query_grouping.group w ~k in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d group count" k)
        true
        (List.length groups <= k && List.length groups >= 1);
      let all = List.concat groups |> List.sort compare in
      Alcotest.(check (list int))
        (Printf.sprintf "k=%d covers all queries" k)
        (List.init (Workload.query_count w) Fun.id)
        all)
    [ 1; 2; 3; 5; 100 ]

let test_grouping_similar_together () =
  (* partsupp: Q1 {0,1,2,3} and Q2 {2,3,4} overlap; with a third disjoint
     query, k=2 must separate the outlier. *)
  let q3 = Query.make ~name:"q3" ~references:(Attr_set.singleton 4) () in
  let w = Workload.make table [ Testutil.partsupp_q1; Testutil.partsupp_q2; q3 ] in
  let groups = Vp_algorithms.Query_grouping.group w ~k:2 in
  Alcotest.(check (list (list int))) "q1,q2 together" [ [ 0; 1 ]; [ 2 ] ] groups

(* --- Replication --- *)

let request w = Testutil.request ~cost:(Vp_cost.Io_model.oracle disk w) w

let test_replication_single_equals_plain () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "customer" in
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let t =
    Vp_algorithms.Replication.build ~replicas:1 ~algorithm:hillclimb
      ~request w
  in
  let plain =
    Partitioner.exec hillclimb (request w)
  in
  Alcotest.(check int) "one replica" 1 (Vp_algorithms.Replication.replica_count t);
  Alcotest.(check (Testutil.close ~eps:1e-9 ()))
    "same cost" plain.Partitioner.Response.cost
    (Vp_algorithms.Replication.workload_cost ~request w t)

let test_replication_monotone_improvement () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "lineitem" in
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let cost r =
    let t =
      Vp_algorithms.Replication.build ~replicas:r ~algorithm:hillclimb
        ~request w
    in
    Vp_algorithms.Replication.workload_cost ~request w t
  in
  let pmv = Vp_cost.Io_model.pmv_cost disk w in
  let c1 = cost 1 and c4 = cost 4 in
  Alcotest.(check bool) "more replicas no worse" true (c4 <= c1 +. 1e-9);
  Alcotest.(check bool) "bounded below by PMV" true (c4 >= pmv -. 1e-9)

let test_replication_storage_factor () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "customer" in
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let t =
    Vp_algorithms.Replication.build ~replicas:3 ~algorithm:hillclimb
      ~request w
  in
  Alcotest.(check (float 0.0)) "3 copies"
    (float_of_int (Vp_algorithms.Replication.replica_count t))
    (Vp_algorithms.Replication.storage_factor w t)

let test_replication_validation () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "customer" in
  Alcotest.check_raises "replicas 0"
    (Invalid_argument "Replication.build: replicas <= 0") (fun () ->
      ignore
        (Vp_algorithms.Replication.build ~replicas:0
           ~algorithm:(Vp_algorithms.Registry.find "HillClimb")
           ~request w))

let suite =
  [
    Alcotest.test_case "selection: selectivity 1.0 sane" `Quick
      test_selection_full_selectivity_not_cheaper;
    Alcotest.test_case "selection: tiny selectivity cheaper" `Quick
      test_selection_tiny_selectivity_cheaper;
    Alcotest.test_case "selection: monotone" `Quick
      test_selection_monotone_in_selectivity;
    Alcotest.test_case "selection: validation" `Quick test_selection_validation;
    Alcotest.test_case "selection: crossover" `Quick
      test_selection_crossover_formula;
    Alcotest.test_case "selection: none = base" `Quick
      test_selection_workload_none_matches_base;
    Alcotest.test_case "grouping: jaccard" `Quick test_jaccard;
    Alcotest.test_case "grouping: k=1" `Quick test_grouping_k1;
    Alcotest.test_case "grouping: partition property" `Quick
      test_grouping_partition_property;
    Alcotest.test_case "grouping: similar together" `Quick
      test_grouping_similar_together;
    Alcotest.test_case "replication: r=1 = plain" `Quick
      test_replication_single_equals_plain;
    Alcotest.test_case "replication: monotone" `Quick
      test_replication_monotone_improvement;
    Alcotest.test_case "replication: storage" `Quick
      test_replication_storage_factor;
    Alcotest.test_case "replication: validation" `Quick
      test_replication_validation;
  ]

(* --- Overlapping layouts (AutoPart partial replication) --- *)

let overlap_of lists =
  Vp_cost.Overlap_model.of_fragments ~n:5 (List.map Attr_set.of_list lists)

let test_overlap_validation () =
  Alcotest.check_raises "no cover"
    (Invalid_argument "Overlap_model: fragments do not cover all attributes")
    (fun () -> ignore (overlap_of [ [ 0; 1 ] ]));
  Alcotest.check_raises "empty fragment"
    (Invalid_argument "Overlap_model: empty fragment") (fun () ->
      ignore
        (Vp_cost.Overlap_model.of_fragments ~n:2
           [ Attr_set.empty; Attr_set.full 2 ]))

let test_overlap_storage () =
  let t = overlap_of [ [ 0; 1; 2; 3 ]; [ 2; 3; 4 ] ] in
  (* partsupp widths: 4 4 4 8 199; fragment bytes = 20 + 211 = 231 vs row
     219. *)
  Alcotest.(check int) "bytes" 231
    (Vp_cost.Overlap_model.storage_bytes table t);
  Alcotest.(check (float 1e-9)) "factor" (231.0 /. 219.0)
    (Vp_cost.Overlap_model.storage_factor table t);
  Alcotest.(check (float 1e-12)) "disjoint factor 1" 1.0
    (Vp_cost.Overlap_model.storage_factor table
       (Vp_cost.Overlap_model.of_partitioning layout))

let test_overlap_selection_prefers_exact_fragment () =
  (* Fragments: the whole row and an exact match for Q1's footprint; the
     selection must pick the exact fragment, not the wide one. *)
  let t = overlap_of [ [ 0; 1; 2; 3; 4 ]; [ 0; 1; 2; 3 ] ] in
  let chosen =
    Vp_cost.Overlap_model.select_fragments disk table t (Query.references q)
  in
  Alcotest.(check (list Testutil.attr_set))
    "exact fragment" [ Attr_set.of_list [ 0; 1; 2; 3 ] ] chosen

let test_overlap_cost_matches_disjoint_model () =
  (* On a disjoint layout the overlapping model must price queries exactly
     like the base model. *)
  let t = Vp_cost.Overlap_model.of_partitioning layout in
  let w = Testutil.partsupp_workload in
  Alcotest.(check (Testutil.close ~eps:1e-9 ()))
    "same as base"
    (Vp_cost.Io_model.workload_cost disk w layout)
    (Vp_cost.Overlap_model.workload_cost disk w t)

let test_overlap_replication_can_beat_disjoint () =
  (* Q1{0,1} and Q2{1,4} share only attribute 1. Any disjoint layout makes
     at least one query read two partitions (extra seeks) or an unneeded
     attribute; replicating attribute 1 into both fragments gives each
     query a single exact-match fragment. *)
  let q1 = Query.make ~name:"q1" ~references:(Attr_set.of_list [ 0; 1 ]) () in
  let q2 = Query.make ~name:"q2" ~references:(Attr_set.of_list [ 1; 4 ]) () in
  let w = Workload.make table [ q1; q2 ] in
  let replicated = overlap_of [ [ 0; 1 ]; [ 1; 4 ]; [ 2 ]; [ 3 ] ] in
  let replicated_cost = Vp_cost.Overlap_model.workload_cost disk w replicated in
  List.iter
    (fun groups ->
      let disjoint =
        Vp_cost.Overlap_model.of_partitioning
          (Partitioning.of_groups ~n:5 (List.map Attr_set.of_list groups))
      in
      Alcotest.(check bool)
        "replication beats disjoint alternative" true
        (replicated_cost
        < Vp_cost.Overlap_model.workload_cost disk w disjoint))
    [
      [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ];
      [ [ 0 ]; [ 1; 4 ]; [ 2 ]; [ 3 ] ];
      [ [ 0; 1; 4 ]; [ 2 ]; [ 3 ] ];
      [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ];
    ]

let test_autopart_replicated_budget_one_is_disjoint () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "partsupp" in
  let r = Vp_algorithms.Autopart_replicated.run ~space_budget:1.0 disk w in
  Alcotest.(check (float 1e-9)) "no extra storage" 1.0 r.storage_factor;
  (* Without slack the search degenerates to plain AutoPart. *)
  let plain =
    (Partitioner.exec Vp_algorithms.Autopart.algorithm
       (Testutil.request ~cost:(Vp_cost.Io_model.oracle disk w) w))
      .Partitioner.Response.cost
  in
  Alcotest.(check (Testutil.close ~eps:1e-6 ())) "same cost" plain r.cost

let test_autopart_replicated_budget_helps () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "lineitem" in
  let tight = Vp_algorithms.Autopart_replicated.run ~space_budget:1.0 disk w in
  let loose = Vp_algorithms.Autopart_replicated.run ~space_budget:2.0 disk w in
  Alcotest.(check bool) "budget respected" true (loose.storage_factor <= 2.0);
  Alcotest.(check bool) "no worse with more budget" true
    (loose.cost <= tight.cost +. 1e-9)

let test_autopart_replicated_validation () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "customer" in
  Alcotest.check_raises "budget < 1"
    (Invalid_argument "Autopart_replicated.run: space_budget < 1.0") (fun () ->
      ignore (Vp_algorithms.Autopart_replicated.run ~space_budget:0.5 disk w))

let overlap_suite =
  [
    Alcotest.test_case "overlap: validation" `Quick test_overlap_validation;
    Alcotest.test_case "overlap: storage" `Quick test_overlap_storage;
    Alcotest.test_case "overlap: selection exact" `Quick
      test_overlap_selection_prefers_exact_fragment;
    Alcotest.test_case "overlap: disjoint = base model" `Quick
      test_overlap_cost_matches_disjoint_model;
    Alcotest.test_case "overlap: replication helps" `Quick
      test_overlap_replication_can_beat_disjoint;
    Alcotest.test_case "autopart-replicated: budget 1.0" `Quick
      test_autopart_replicated_budget_one_is_disjoint;
    Alcotest.test_case "autopart-replicated: budget helps" `Quick
      test_autopart_replicated_budget_helps;
    Alcotest.test_case "autopart-replicated: validation" `Quick
      test_autopart_replicated_validation;
  ]

let suite = suite @ overlap_suite
