(* Quickstart: the paper's introductory example (Section 1.1).

   The TPC-H PartSupp table and two queries:
     Q1: SELECT PartKey, SuppKey, AvailQty, SupplyCost FROM PartSupp
     Q2: SELECT AvailQty, SupplyCost, Comment FROM PartSupp

   We describe the table and workload, run HillClimb under the default
   disk profile, and compare the resulting layout against row and column
   layout.

   Run with: dune exec examples/quickstart.exe *)

open Vp_core

let () =
  (* 1. Describe the table: name, typed attributes, row count. *)
  let partsupp =
    Table.make ~name:"partsupp" ~row_count:8_000_000
      ~attributes:
        [
          Attribute.make "PartKey" Attribute.Int32;
          Attribute.make "SuppKey" Attribute.Int32;
          Attribute.make "AvailQty" Attribute.Int32;
          Attribute.make "SupplyCost" Attribute.Decimal;
          Attribute.make "Comment" (Attribute.Varchar 199);
        ]
  in
  (* 2. Describe the workload: each query is just its attribute footprint. *)
  let q1 =
    Query.make ~name:"Q1"
      ~references:
        (Table.attr_set_of_names partsupp
           [ "PartKey"; "SuppKey"; "AvailQty"; "SupplyCost" ])
      ()
  in
  let q2 =
    Query.make ~name:"Q2"
      ~references:
        (Table.attr_set_of_names partsupp
           [ "AvailQty"; "SupplyCost"; "Comment" ])
      ()
  in
  let workload = Workload.make partsupp [ q1; q2 ] in
  (* 3. Pick a cost model (the paper's testbed disk) and an algorithm. *)
  let disk = Vp_cost.Disk.default in
  let hillclimb = Vp_algorithms.Hillclimb.algorithm in
  let result = Partitioner.exec hillclimb (Vp_cost.Io_model.request disk workload) in
  (* 4. Inspect the result. *)
  Format.printf "HillClimb layout: %a@."
    (Partitioning.pp_named partsupp)
    result.Partitioner.Response.partitioning;
  Format.printf "  estimated workload cost: %.2f s (found in %s, %d cost calls)@."
    result.Partitioner.Response.cost
    (Vp_report.Ascii.seconds result.Partitioner.Response.stats.Partitioner.elapsed_seconds)
    result.Partitioner.Response.stats.Partitioner.cost_calls;
  let n = Table.attribute_count partsupp in
  let cost p = Vp_cost.Io_model.workload_cost disk workload p in
  Format.printf "  row layout:    %.2f s@." (cost (Partitioning.row n));
  Format.printf "  column layout: %.2f s@." (cost (Partitioning.column n));
  Format.printf "  improvement over row: %s@."
    (Vp_report.Ascii.percent
       (Vp_metrics.Measures.improvement_over disk workload
          ~baseline:(Partitioning.row n) result.Partitioner.Response.partitioning))
