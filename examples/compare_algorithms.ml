(* Compare every algorithm (plus Row/Column baselines and the exact
   BruteForce search) on one TPC-H table, reporting the paper's quality
   measures side by side.

   Run with: dune exec examples/compare_algorithms.exe [-- table [sf]] *)

open Vp_core

let () =
  let table_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "customer" in
  let sf =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 10.0
  in
  let disk = Vp_cost.Disk.default in
  let workload = Vp_benchmarks.Tpch.workload ~sf table_name in
  let table = Workload.table workload in
  let brute_force =
    Vp_algorithms.Brute_force.make
      ~lower_bound:(fun w -> Vp_cost.Bounds.io_brute_force disk w)
      ()
  in
  let algos =
    Vp_algorithms.Registry.with_brute_force ~brute_force ()
    @ Vp_algorithms.Registry.baselines
  in
  let rows =
    List.map
      (fun (a : Partitioner.t) ->
        let r = Partitioner.exec a (Vp_cost.Io_model.request disk workload) in
        [
          a.Partitioner.name;
          Printf.sprintf "%.3f" r.Partitioner.Response.cost;
          Vp_report.Ascii.seconds
            r.Partitioner.Response.stats.Partitioner.elapsed_seconds;
          string_of_int (Partitioning.group_count r.Partitioner.Response.partitioning);
          Vp_report.Ascii.percent
            (Vp_metrics.Measures.unnecessary_data_read disk workload
               r.Partitioner.Response.partitioning);
          Vp_report.Ascii.float3
            (Vp_metrics.Measures.avg_tuple_reconstruction_joins workload
               r.Partitioner.Response.partitioning);
          Format.asprintf "%a" (Partitioning.pp_named table)
            r.Partitioner.Response.partitioning;
        ])
      algos
  in
  print_endline
    (Vp_report.Ascii.table
       ~title:
         (Printf.sprintf
            "Vertical partitioning of %s (SF %g, %d queries, %d attributes)"
            table_name sf (Workload.query_count workload)
            (Table.attribute_count table))
       ~headers:
         [
           "Algorithm"; "Cost (s)"; "Opt time"; "Groups"; "Unnecessary";
           "Joins"; "Layout";
         ]
       rows)
