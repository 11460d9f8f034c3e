(** Extension experiment: vertical partitioning with data replication — the
    dimension the unified comparison stripped (Section 4, "Common
    Replication") and Trojan's native setting ("The Trojan algorithm works
    especially well with data replication, such as found in HDFS").

    Each replica count r splits the TPC-H workload per table into r query
    groups (Jaccard-similar footprints); each group's replica is laid out
    independently. Reported: total estimated cost, improvement over the
    single-replica layout of the same algorithm, distance from the PMV
    bound, and the storage price. *)

open Vp_core

let run_for (algorithm : Partitioner.t) replicas =
  let request = Vp_cost.Io_model.request Common.disk in
  List.fold_left
    (fun (cost, storage_bytes) workload ->
      let t =
        Vp_algorithms.Replication.build ~replicas ~algorithm ~request workload
      in
      let table = Workload.table workload in
      ( cost +. Vp_algorithms.Replication.workload_cost ~request workload t,
        storage_bytes
        +. (float_of_int (Table.row_count table * Table.row_size table)
           *. Vp_algorithms.Replication.storage_factor workload t) ))
    (0.0, 0.0)
    (Vp_benchmarks.Tpch.workloads ~sf:Common.sf)

(* AutoPart's partial replication: overlapping fragments under a storage
   budget, per table. *)
let autopart_partial () =
  let rows =
    List.map
      (fun space_budget ->
        let cost, storage, base_storage =
          List.fold_left
            (fun (c, s, bs) workload ->
              let table = Workload.table workload in
              let r =
                Vp_algorithms.Autopart_replicated.run ~space_budget Common.disk
                  workload
              in
              let table_bytes =
                float_of_int (Table.row_count table * Table.row_size table)
              in
              ( c +. r.Vp_algorithms.Autopart_replicated.cost,
                s +. (table_bytes *. r.Vp_algorithms.Autopart_replicated.storage_factor),
                bs +. table_bytes ))
            (0.0, 0.0, 0.0)
            (Vp_benchmarks.Tpch.workloads ~sf:Common.sf)
        in
        [
          Printf.sprintf "AutoPart partial, budget %.2fx" space_budget;
          Printf.sprintf "%.1f" cost;
          Vp_report.Ascii.percent ((storage -. base_storage) /. base_storage);
        ])
      [ 1.0; 1.25; 1.5; 2.0 ]
  in
  Vp_report.Ascii.table
    ~title:
      "AutoPart partial replication (overlapping fragments, greedy per-query \
       fragment selection) under a storage budget:"
    ~headers:[ "Configuration"; "Cost (s)"; "Extra storage" ]
    rows

let run () =
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Common.sf in
  let pmv = Vp_metrics.Measures.Aggregate.total_pmv_cost Common.disk workloads in
  let render (algo_name : string) =
    let algorithm = Vp_algorithms.Registry.find algo_name in
    let single, _ = run_for algorithm 1 in
    List.map
      (fun replicas ->
        let cost, storage = run_for algorithm replicas in
        [
          Printf.sprintf "%s r=%d" algo_name replicas;
          Printf.sprintf "%.1f" cost;
          Vp_report.Ascii.percent ((single -. cost) /. single);
          Vp_report.Ascii.percent ((cost -. pmv) /. pmv);
          Vp_report.Ascii.bytes storage;
        ])
      [ 1; 2; 3; 4 ]
  in
  Vp_report.Ascii.table
    ~title:
      (Printf.sprintf
         "Replication extension: per-replica layouts from query groups \
          (TPC-H SF %g; PMV bound = %.1f s).\n\
          More replicas close the gap to PMV at a linear storage price — \
          Trojan's native HDFS trade-off."
         Common.sf pmv)
    ~headers:
      [ "Configuration"; "Cost (s)"; "Improvement vs r=1";
        "Distance from PMV"; "Storage" ]
    (render "Trojan" @ render "HillClimb")
  ^ "\n" ^ autopart_partial ()
