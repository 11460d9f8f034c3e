(** Extension experiment: why are "column layouts often good enough"?

    The paper's lesson 4 attributes the small improvement over Column on
    TPC-H to its fragmented access patterns. This experiment makes the
    claim quantitative with synthetic workloads: the scatter knob moves the
    workload from perfectly regular (every query = one attribute cluster)
    to fully fragmented (random footprints), and the improvement of the
    optimal vertical partitioning over Column collapses accordingly. The
    TPC-H row shows where the real benchmark falls on that curve. *)

open Vp_core

let improvement_over_column disk workloads =
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let layout = ref 0.0 and column = ref 0.0 in
  List.iter
    (fun w ->
      let n = Table.attribute_count (Workload.table w) in
      let request = Vp_cost.Io_model.request disk w in
      let r = Partitioner.exec hillclimb request in
      layout := !layout +. r.Partitioner.Response.cost;
      column := !column +. request.cost (Partitioning.column n))
    workloads;
  (!column -. !layout) /. !column

let avg_fragmentation workloads =
  let total =
    List.fold_left
      (fun acc w -> acc +. Vp_benchmarks.Synthetic.fragmentation w)
      0.0 workloads
  in
  total /. float_of_int (List.length workloads)

let run () =
  let disk = Common.disk in
  let synthetic scatter =
    [
      Vp_benchmarks.Synthetic.workload ~attributes:16 ~clusters:4 ~queries:17
        ~scatter ();
    ]
  in
  let rows =
    List.map
      (fun scatter ->
        let ws = synthetic scatter in
        [
          Printf.sprintf "synthetic scatter=%.1f" scatter;
          Printf.sprintf "%.3f" (avg_fragmentation ws);
          Vp_report.Ascii.percent (improvement_over_column disk ws);
        ])
      [ 0.0; 0.1; 0.2; 0.3; 0.5; 0.7; 1.0 ]
  in
  let tpch = Vp_benchmarks.Tpch.workloads ~sf:Common.sf in
  let tpch_row =
    [
      "TPC-H (all tables)";
      Printf.sprintf "%.3f" (avg_fragmentation tpch);
      Vp_report.Ascii.percent (improvement_over_column disk tpch);
    ]
  in
  Vp_report.Ascii.table
    ~title:
      "Fragmentation extension: improvement of the best vertical \
       partitioning over Column as access patterns fragment\n\
       (the paper's lesson 4 mechanism: regular patterns reward column \
       grouping, fragmented ones leave almost nothing over Column)"
    ~headers:
      [ "Workload"; "Fragmentation score"; "HillClimb improvement over Column" ]
    (rows @ [ tpch_row ])
