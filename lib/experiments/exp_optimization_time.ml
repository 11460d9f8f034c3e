(** E03/E04 — Figure 1 (optimization time per algorithm, log scale) and
    Figure 2 (optimization time vs workload size).

    Absolute times differ from the paper (OCaml on modern hardware vs Java 6
    on a 2006 Xeon); the reproduced property is the {e orders of magnitude}
    between the heuristics and BruteForce, and the scaling trend over the
    workload size. *)

open Vp_core

let fig1 () =
  let runs = Common.tpch_runs () in
  let interesting =
    List.filter
      (fun (r : Common.algo_run) ->
        not (List.mem r.algo.Partitioner.name [ "Row"; "Column" ]))
      runs
  in
  let entries =
    List.map
      (fun (r : Common.algo_run) ->
        (r.algo.Partitioner.name, max 1e-6 r.optimization_time))
      interesting
  in
  let chart =
    Vp_report.Chart.bar
      ~title:
        "Figure 1: Optimization time for different algorithms (all TPC-H \
         tables, log scale)"
      ~log_scale:true ~unit:"s" entries
  in
  let fastest =
    List.fold_left (fun acc (_, t) -> min acc t) infinity entries
  in
  let bf = List.assoc "BruteForce" entries in
  chart
  ^ Printf.sprintf
      "BruteForce / fastest heuristic = %.0fx (paper: 5 orders of magnitude; \
       exact search here is branch-and-bound-accelerated)\n"
      (bf /. fastest)

let fig2 () =
  let algos =
    List.filter
      (fun (a : Partitioner.t) ->
        List.mem a.Partitioner.name
          [ "AutoPart"; "HillClimb"; "HYRISE"; "Navathe"; "O2P" ])
      (Common.algorithms Common.disk)
  in
  let ks = List.init 22 (fun i -> i + 1) in
  let series =
    List.map
      (fun (a : Partitioner.t) ->
        let times =
          List.map
            (fun k ->
              let total = ref 0.0 in
              List.iter
                (fun table_name ->
                  let w =
                    Vp_benchmarks.Tpch.workload_prefix ~sf:Common.sf ~k
                      table_name
                  in
                  if Workload.query_count w > 0 then begin
                    let r = Partitioner.exec a (Vp_cost.Io_model.request Common.disk w) in
                    total := !total +. r.stats.Partitioner.elapsed_seconds
                  end)
                Vp_benchmarks.Tpch.table_names;
              !total *. 1000.0)
            ks
        in
        (a.Partitioner.name ^ " (ms)", times))
      algos
  in
  Vp_report.Chart.series
    ~title:
      "Figure 2: Optimization time over varying workload size (first k \
       TPC-H queries; Trojan and BruteForce excluded as in the paper)"
    ~x_label:"k" ~xs:(List.map string_of_int ks) series
