(** Extension experiment (the paper's Section 7 remark): does putting the
    selection attributes in a partition of their own change the layouts?

    "We did consider putting the selection attributes in a different
    partition. But it turns out that this affects the data layouts only
    when the selectivity is higher than 10^-4 for uniformly distributed
    datasets, such as TPC-H."

    We reproduce the claim on Lineitem with a ShipDate predicate: for each
    selectivity we run HillClimb under the selection-aware cost model and
    check whether the chosen layout diverges from the non-selective optimum
    and how much the selection-aware plan saves. The crossover where random
    per-match fetches beat a sequential scan sits at
    [scan / (rows * (seek + block))] — a few 10^-4 on the paper's disk. *)

open Vp_core

let run () =
  let disk = Common.disk in
  let workload = Vp_benchmarks.Tpch.workload ~sf:Common.sf "lineitem" in
  let table = Workload.table workload in
  let shipdate = Table.position table "ShipDate" in
  let selection selectivity q =
    if Query.references_attr q shipdate then
      Some
        {
          Vp_cost.Selection_model.attributes = Attr_set.singleton shipdate;
          selectivity;
        }
    else None
  in
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let base_layout =
    (Partitioner.exec hillclimb (Vp_cost.Io_model.request disk workload)).Partitioner.Response.partitioning
  in
  let rows =
    List.map
      (fun selectivity ->
        let request =
          Vp_cost.Selection_model.request disk workload (selection selectivity)
        in
        let oracle = request.cost in
        let r = Partitioner.exec hillclimb request in
        let same =
          Partitioning.equal r.Partitioner.Response.partitioning base_layout
        in
        let saving =
          (oracle base_layout -. r.Partitioner.Response.cost)
          /. oracle base_layout
        in
        [
          Printf.sprintf "%.0e" selectivity;
          Printf.sprintf "%.1f" r.Partitioner.Response.cost;
          (if same then "unchanged" else "diverged");
          Vp_report.Ascii.percent saving;
        ])
      [ 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 ]
  in
  let crossover_narrow =
    Vp_cost.Selection_model.crossover_selectivity disk
      ~rows:(Table.row_count table)
      ~row_size:(Table.subset_size table (Attr_set.singleton shipdate))
  in
  let crossover_wide =
    Vp_cost.Selection_model.crossover_selectivity disk
      ~rows:(Table.row_count table) ~row_size:(Table.row_size table)
  in
  Vp_report.Ascii.table
    ~title:
      (Printf.sprintf
         "Selection-aware layouts on Lineitem (ShipDate predicate): layouts \
          diverge only below the fetch/scan crossover, which ranges from \
          %.1e (narrowest partition) to %.1e (full row)\n\
          (paper, Section 7: layouts are affected only for selectivities \
          beyond ~10^-4)"
         crossover_narrow crossover_wide)
    ~headers:
      [ "Selectivity"; "HillClimb cost (s)"; "Layout vs non-selective";
        "Saving over non-selective layout" ]
    rows
