open Vp_core

let disk = Vp_cost.Disk.default

let brute_force =
  Vp_algorithms.Brute_force.make
    ~lower_bound:(fun w -> Vp_cost.Bounds.io_brute_force disk w)
    ()

let all_algorithms =
  Vp_algorithms.Registry.with_brute_force ~brute_force ()
  @ Vp_algorithms.Registry.baselines

let tpch_workloads = lazy (Vp_benchmarks.Tpch.workloads ~sf:1.0)

(* Every algorithm must return a valid partitioning on every TPC-H table. *)
let test_validity_on_tpch () =
  List.iter
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      List.iter
        (fun (a : Partitioner.t) ->
          let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s valid" a.Partitioner.name
               (Table.name (Workload.table w)))
            true
            (Testutil.valid_partitioning_of_workload r.Partitioner.Response.partitioning w))
        all_algorithms)
    (Lazy.force tpch_workloads)

(* More queries than an attribute set has bits: every registered
   algorithm still returns a valid partitioning (the atom and mutual
   information computations read multi-word query bitsets). *)
let test_validity_past_62_queries () =
  let w =
    Vp_benchmarks.Synthetic.workload ~seed:5L ~rows:50_000 ~attributes:8
      ~clusters:3 ~queries:70 ~scatter:0.2 ()
  in
  let oracle = Vp_cost.Io_model.oracle disk w in
  List.iter
    (fun (a : Partitioner.t) ->
      let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
      Alcotest.(check bool)
        (Printf.sprintf "%s on 70 queries valid" a.Partitioner.name)
        true
        (Testutil.valid_partitioning_of_workload
           r.Partitioner.Response.partitioning w))
    Vp_algorithms.Registry.all

(* Reported cost must equal the oracle's evaluation of the returned
   layout. *)
let test_cost_is_consistent () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "customer" in
  let oracle = Vp_cost.Io_model.oracle disk w in
  List.iter
    (fun (a : Partitioner.t) ->
      let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
      Alcotest.(check (Testutil.close ~eps:1e-9 ()))
        (a.Partitioner.name ^ " cost matches oracle")
        (oracle r.Partitioner.Response.partitioning)
        r.Partitioner.Response.cost)
    all_algorithms

(* HillClimb starts from column layout and only merges on improvement, so
   its result can never be worse than column. *)
let test_hillclimb_beats_column () =
  List.iter
    (fun w ->
      let n = Table.attribute_count (Workload.table w) in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let r = Partitioner.exec Vp_algorithms.Hillclimb.algorithm (Testutil.request ~cost:oracle w) in
      Alcotest.(check bool)
        (Table.name (Workload.table w))
        true
        (r.Partitioner.Response.cost <= oracle (Partitioning.column n) +. 1e-9))
    (Lazy.force tpch_workloads)

(* AutoPart starts from the atomic fragments and only merges on
   improvement. *)
let test_autopart_beats_atoms () =
  List.iter
    (fun w ->
      let n = Table.attribute_count (Workload.table w) in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let atoms =
        Partitioning.of_groups ~n (Workload.primary_partitions w)
      in
      let r = Partitioner.exec Vp_algorithms.Autopart.algorithm (Testutil.request ~cost:oracle w) in
      Alcotest.(check bool)
        (Table.name (Workload.table w))
        true
        (r.Partitioner.Response.cost <= oracle atoms +. 1e-9))
    (Lazy.force tpch_workloads)

(* The dictionary variant of HillClimb must find the default's layout at
   the same cost bits with the same cost calls: a merge-only climb never
   repeats a candidate, so the dictionary never hits. *)
let test_hillclimb_dictionary_same () =
  List.iter
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      let run a = Partitioner.exec a (Testutil.request ~cost:oracle w) in
      let a = run Vp_algorithms.Hillclimb.algorithm in
      List.iter
        (fun (variant : Partitioner.t) ->
          let b = run variant in
          let label =
            Printf.sprintf "%s %s" (Table.name (Workload.table w))
              variant.Partitioner.name
          in
          Alcotest.(check Testutil.partitioning)
            label a.Partitioner.Response.partitioning
            b.Partitioner.Response.partitioning;
          Alcotest.(check int64) (label ^ " cost bits")
            (Int64.bits_of_float a.Partitioner.Response.cost)
            (Int64.bits_of_float b.Partitioner.Response.cost);
          Alcotest.(check int) (label ^ " cost calls")
            a.Partitioner.Response.stats.Partitioner.cost_calls
            b.Partitioner.Response.stats.Partitioner.cost_calls)
        [ Vp_algorithms.Hillclimb.with_dictionary ])
    (Lazy.force tpch_workloads)

(* BruteForce with the lower bound must equal BruteForce without it. *)
let test_brute_force_bound_exactness () =
  List.iter
    (fun table_name ->
      let w = Vp_benchmarks.Tpch.workload ~sf:1.0 table_name in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let with_lb = Partitioner.exec brute_force (Testutil.request ~cost:oracle w) in
      let without_lb =
        Partitioner.exec
          (Vp_algorithms.Brute_force.make ())
          (Testutil.request ~cost:oracle w)
      in
      Alcotest.(check (Testutil.close ~eps:1e-9 ()))
        (table_name ^ " same optimal cost")
        without_lb.Partitioner.Response.cost with_lb.Partitioner.Response.cost)
    [ "customer"; "supplier"; "partsupp"; "nation"; "region" ]

(* Primary-partition search must match raw attribute-level search (the
   merging of always-co-accessed attributes is lossless under this cost
   model) on tables small enough for both. *)
let test_brute_force_atoms_lossless () =
  List.iter
    (fun table_name ->
      let w = Vp_benchmarks.Tpch.workload ~sf:1.0 table_name in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let atoms = Partitioner.exec brute_force (Testutil.request ~cost:oracle w) in
      let raw =
        Partitioner.exec
          (Vp_algorithms.Brute_force.make ~use_atoms:false
             ~lower_bound:(fun w -> Vp_cost.Bounds.io_brute_force disk w)
             ())
          (Testutil.request ~cost:oracle w)
      in
      Alcotest.(check (Testutil.close ~eps:1e-9 ()))
        (table_name ^ " atoms = raw")
        raw.Partitioner.Response.cost atoms.Partitioner.Response.cost)
    [ "customer"; "supplier"; "partsupp"; "region"; "nation" ]

(* BruteForce must never lose to any heuristic. *)
let test_brute_force_optimal_on_tpch () =
  List.iter
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      let bf = (Partitioner.exec brute_force (Testutil.request ~cost:oracle w)).Partitioner.Response.cost in
      List.iter
        (fun (a : Partitioner.t) ->
          let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
          Alcotest.(check bool)
            (Printf.sprintf "BF <= %s on %s" a.Partitioner.name
               (Table.name (Workload.table w)))
            true
            (bf <= r.Partitioner.Response.cost +. 1e-9))
        all_algorithms)
    (Lazy.force tpch_workloads)

(* Without a lower bound, oversized search spaces must be refused. *)
let test_brute_force_refuses_huge_space () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "lineitem" in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let tiny_budget =
    Vp_algorithms.Brute_force.make ~max_candidates:100 ()
  in
  Alcotest.(check bool)
    "raises" true
    (match Partitioner.exec tiny_budget (Testutil.request ~cost:oracle w) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* O2P's offline entry point must match the last step of the online
   simulation. *)
let test_o2p_online_consistent () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "orders" in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let offline = Partitioner.exec Vp_algorithms.O2p.algorithm (Testutil.request ~cost:oracle w) in
  let online =
    Vp_algorithms.O2p.online w (fun prefix -> Vp_cost.Io_model.oracle disk prefix)
  in
  let _, last_layout, _ = List.nth online (List.length online - 1) in
  Alcotest.(check Testutil.partitioning)
    "same final layout" offline.Partitioner.Response.partitioning last_layout;
  Alcotest.(check int)
    "one step per query" (Workload.query_count w) (List.length online)

(* Unreferenced attributes must never be merged with referenced ones by the
   cost-guided algorithms (reading them would be pure waste). *)
let test_no_waste_from_unreferenced () =
  List.iter
    (fun w ->
      let unref = Workload.unreferenced_attributes w in
      if not (Attr_set.is_empty unref) then begin
        let oracle = Vp_cost.Io_model.oracle disk w in
        List.iter
          (fun name ->
            let a = Vp_algorithms.Registry.find name in
            let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
            List.iter
              (fun g ->
                if Attr_set.intersects g unref then
                  Alcotest.(check bool)
                    (Printf.sprintf "%s on %s: group %s purely unreferenced"
                       name
                       (Table.name (Workload.table w))
                       (Attr_set.to_string g))
                    true (Attr_set.subset g unref))
              (Partitioning.groups r.Partitioner.Response.partitioning))
          [ "HillClimb"; "AutoPart"; "HYRISE" ]
      end)
    (Lazy.force tpch_workloads)

(* Stats sanity: all algorithms fill in timing and candidate counters. *)
let test_stats_populated () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "part" in
  let oracle = Vp_cost.Io_model.oracle disk w in
  List.iter
    (fun (a : Partitioner.t) ->
      let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
      Alcotest.(check bool)
        (a.Partitioner.name ^ " non-negative time")
        true
        (r.Partitioner.Response.stats.Partitioner.elapsed_seconds >= 0.0);
      Alcotest.(check bool)
        (a.Partitioner.name ^ " calls <= candidates+1")
        true
        (r.Partitioner.Response.stats.Partitioner.cost_calls
        <= r.Partitioner.Response.stats.Partitioner.candidates + 1))
    all_algorithms

(* --- properties on random workloads --- *)

(* Oracle shared by the property tests: a small random workload over 6
   attributes, where exact search over raw attributes is instant. *)
let prop_brute_force_optimal_random =
  QCheck2.Test.make ~name:"BruteForce optimal on random workloads" ~count:25
    (Testutil.gen_workload 6 5)
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      let raw =
        Vp_algorithms.Brute_force.make ~use_atoms:false ()
      in
      let bf = (Partitioner.exec raw (Testutil.request ~cost:oracle w)).Partitioner.Response.cost in
      List.for_all
        (fun (a : Partitioner.t) ->
          let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
          bf <= r.Partitioner.Response.cost +. 1e-9)
        (Vp_algorithms.Registry.six @ Vp_algorithms.Registry.baselines))

let prop_all_valid_random =
  QCheck2.Test.make ~name:"all algorithms valid on random workloads" ~count:50
    (Testutil.gen_workload 7 6)
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      List.for_all
        (fun (a : Partitioner.t) ->
          let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
          Testutil.valid_partitioning_of_workload r.Partitioner.Response.partitioning w)
        all_algorithms)

let prop_brute_force_atoms_lossless_random =
  QCheck2.Test.make ~name:"atoms search = raw search on random workloads"
    ~count:25 (Testutil.gen_workload 6 4)
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      let atoms =
        (Partitioner.exec
           (Vp_algorithms.Brute_force.make ())
           (Testutil.request ~cost:oracle w))
          .Partitioner.Response.cost
      in
      let raw =
        (Partitioner.exec
           (Vp_algorithms.Brute_force.make ~use_atoms:false ())
           (Testutil.request ~cost:oracle w))
          .Partitioner.Response.cost
      in
      Float.abs (atoms -. raw) < 1e-9)

let suite =
  [
    Alcotest.test_case "validity on TPC-H" `Quick test_validity_on_tpch;
    Alcotest.test_case "cost consistent with oracle" `Quick test_cost_is_consistent;
    Alcotest.test_case "HillClimb beats column" `Quick test_hillclimb_beats_column;
    Alcotest.test_case "AutoPart beats atoms" `Quick test_autopart_beats_atoms;
    Alcotest.test_case "HillClimb dictionary same result" `Quick
      test_hillclimb_dictionary_same;
    Alcotest.test_case "BruteForce bound exactness" `Quick
      test_brute_force_bound_exactness;
    Alcotest.test_case "BruteForce atoms lossless" `Quick
      test_brute_force_atoms_lossless;
    Alcotest.test_case "BruteForce optimal on TPC-H" `Slow
      test_brute_force_optimal_on_tpch;
    Alcotest.test_case "BruteForce refuses huge spaces" `Quick
      test_brute_force_refuses_huge_space;
    Alcotest.test_case "O2P online consistency" `Quick test_o2p_online_consistent;
    Alcotest.test_case "all algorithms valid past 62 queries" `Quick
      test_validity_past_62_queries;
    Alcotest.test_case "no waste from unreferenced attrs" `Quick
      test_no_waste_from_unreferenced;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Testutil.qtest prop_brute_force_optimal_random;
    Testutil.qtest prop_all_valid_random;
    Testutil.qtest prop_brute_force_atoms_lossless_random;
  ]
