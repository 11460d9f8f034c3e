(** E14/E15 — Table 5 (TPC-H vs SSB improvement over Column) and Table 6
    (disk vs main-memory cost model improvement over Column). *)

open Vp_core

let improvement_over_column ~request_of workloads (a : Partitioner.t) =
  let layout = ref 0.0 and column = ref 0.0 in
  List.iter
    (fun w ->
      let n = Table.attribute_count (Workload.table w) in
      let request = request_of w in
      let r = Partitioner.exec a request in
      layout := !layout +. r.Partitioner.Response.cost;
      column := !column +. request.cost (Partitioning.column n))
    workloads;
  (!column -. !layout) /. !column

let algo_order =
  [ "AutoPart"; "HillClimb"; "HYRISE"; "Navathe"; "O2P"; "Trojan"; "BruteForce" ]

let algos () =
  List.map
    (fun name ->
      List.find
        (fun (a : Partitioner.t) -> a.Partitioner.name = name)
        (Common.algorithms Common.disk))
    algo_order

let table5 () =
  let tpch = Vp_benchmarks.Tpch.workloads ~sf:Common.sf in
  let ssb = Vp_benchmarks.Ssb.workloads ~sf:Common.sf in
  let io = Vp_cost.Io_model.request Common.disk in
  let rows =
    List.map
      (fun (a : Partitioner.t) ->
        [
          a.Partitioner.name;
          Vp_report.Ascii.percent (improvement_over_column ~request_of:io tpch a);
          Vp_report.Ascii.percent (improvement_over_column ~request_of:io ssb a);
        ])
      (algos ())
  in
  Vp_report.Ascii.table
    ~title:
      "Table 5: Estimated improvement over Column layout with different \
       benchmarks\n\
       (paper: TPC-H  AP 3.71 / HC 3.71 / HY 1.58 / Na -21.47 / O2P -27.74 \
       / Tr 3.71 / BF 3.71;\n\
      \        SSB    AP 5.29 / HC 5.29 / HY 5.27 / Na 1.64 / O2P 1.64 / Tr \
       0.05 / BF 5.29)"
    ~headers:[ "Algorithm"; "TPC-H"; "SSB" ]
    rows

let table6 () =
  let tpch = Vp_benchmarks.Tpch.workloads ~sf:Common.sf in
  let io = Vp_cost.Io_model.request Common.disk in
  let mm = Vp_cost.Memory_model.request Vp_cost.Memory_model.default in
  (* BruteForce under the memory model needs the matching lower bound. *)
  let algos_mm =
    List.map
      (fun name ->
        if name = "BruteForce" then Common.memory_brute_force
        else Vp_algorithms.Registry.find name)
      algo_order
  in
  let rows =
    List.map2
      (fun (a_io : Partitioner.t) (a_mm : Partitioner.t) ->
        [
          a_io.Partitioner.name;
          Vp_report.Ascii.percent
            (improvement_over_column ~request_of:io tpch a_io);
          Vp_report.Ascii.percent
            (improvement_over_column ~request_of:mm tpch a_mm);
        ])
      (algos ()) algos_mm
  in
  Vp_report.Ascii.table
    ~title:
      "Table 6: Estimated improvement over Column with different cost \
       models\n\
       (paper: MM model  AP 0.00 / HC 0.00 / HY 0.00 / Na -15.07 / O2P \
       -15.53 / Tr 0.00 / BF 0.00)"
    ~headers:[ "Algorithm"; "HDD cost model"; "MM cost model" ]
    rows
