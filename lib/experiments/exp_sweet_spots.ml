(** E13/E19/E20 — re-optimization sweeps: Figure 9 (buffer size), Figure 12
    (block size, bandwidth, seek time) and Figure 13 (buffer size x dataset
    scale). For every parameter value the layouts are recomputed, and costs
    are shown normalized to Column — the "where does vertical partitioning
    make sense" question. *)

open Vp_core

let reoptimized_cost profile (a : Partitioner.t) workloads =
  List.fold_left
    (fun acc w ->
      let r = Partitioner.exec a (Vp_cost.Io_model.request profile w) in
      acc +. r.Partitioner.Response.cost)
    0.0 workloads

let column_cost profile workloads =
  List.fold_left
    (fun acc w ->
      acc
      +. Vp_cost.Io_model.workload_cost profile w
           (Partitioning.column (Table.attribute_count (Workload.table w))))
    0.0 workloads

let pmv_cost profile workloads =
  Vp_metrics.Measures.Aggregate.total_pmv_cost profile workloads

let normalized_sweep ~labels_and_profiles ~workloads_for =
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let navathe = Vp_algorithms.Registry.find "Navathe" in
  List.fold_left
    (fun (xs, hc, na, pmv) (label, profile) ->
      let workloads = workloads_for profile in
      let col = column_cost profile workloads in
      let pct v = 100.0 *. v /. col in
      ( xs @ [ label ],
        hc @ [ pct (reoptimized_cost profile hillclimb workloads) ],
        na @ [ pct (reoptimized_cost profile navathe workloads) ],
        pmv @ [ pct (pmv_cost profile workloads) ] ))
    ([], [], [], []) labels_and_profiles

(* Once, not lazy: forced from several domains when experiments run in
   parallel. *)
let tpch_workloads =
  Vp_parallel.Once.create (fun () -> Vp_benchmarks.Tpch.workloads ~sf:Common.sf)

let fig9 () =
  let buffers = [ 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0 ] in
  let labels_and_profiles =
    List.map
      (fun mb ->
        ( Printf.sprintf "%g MB" mb,
          Vp_cost.Disk.with_buffer_size Common.disk (Vp_cost.Disk.mb mb) ))
      buffers
  in
  let xs, hc, na, pmv =
    normalized_sweep ~labels_and_profiles
      ~workloads_for:(fun _ -> Vp_parallel.Once.get tpch_workloads)
  in
  Vp_report.Chart.series
    ~title:
      "Figure 9: Estimated workload cost vs Column (=100%) when \
       re-optimizing for each buffer size\n\
       (paper: vertical partitioning pays off over Column only below ~100 \
       MB buffers; Navathe beats Column only in a narrow 30-300 KB band)"
    ~x_label:"Buffer"
    ~xs
    [ ("HillClimb %", hc); ("Navathe %", na); ("PMV %", pmv) ]

let fig12 ~label ~variants ~with_param () =
  let labels_and_profiles =
    List.map (fun v -> (label v, with_param v)) variants
  in
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let navathe = Vp_algorithms.Registry.find "Navathe" in
  let workloads = Vp_parallel.Once.get tpch_workloads in
  let rows =
    List.map
      (fun (lbl, profile) ->
        [
          lbl;
          Printf.sprintf "%.0f" (reoptimized_cost profile hillclimb workloads);
          Printf.sprintf "%.0f" (reoptimized_cost profile navathe workloads);
          Printf.sprintf "%.0f" (pmv_cost profile workloads);
          Printf.sprintf "%.0f" (column_cost profile workloads);
          Printf.sprintf "%.0f"
            (List.fold_left
               (fun acc w ->
                 acc
                 +. Vp_cost.Io_model.workload_cost profile w
                      (Partitioning.row
                         (Table.attribute_count (Workload.table w))))
               0.0 workloads);
        ])
      labels_and_profiles
  in
  Vp_report.Ascii.table
    ~headers:[ "Setting"; "HillClimb"; "Navathe"; "Query-optimal"; "Column"; "Row" ]
    rows

let fig12a () =
  "Figure 12(a): Estimated runtime (s) when re-optimizing per block size\n"
  ^ fig12
      ~label:(fun kb -> Printf.sprintf "%g KB" kb)
      ~variants:[ 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 ]
      ~with_param:(fun kb ->
        Vp_cost.Disk.with_block_size Common.disk (int_of_float (kb *. 1024.)))
      ()

let fig12b () =
  "Figure 12(b): Estimated runtime (s) when re-optimizing per disk \
   bandwidth\n"
  ^ fig12
      ~label:(fun m -> Printf.sprintf "%g MB/s" m)
      ~variants:[ 70.0; 90.0; 110.0; 130.0; 150.0; 170.0; 190.0 ]
      ~with_param:(fun m ->
        Vp_cost.Disk.with_read_bandwidth Common.disk (m *. 1024.0 *. 1024.0))
      ()

let fig12c () =
  "Figure 12(c): Estimated runtime (s) when re-optimizing per seek time\n"
  ^ fig12
      ~label:(fun ms -> Printf.sprintf "%g ms" ms)
      ~variants:[ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 ]
      ~with_param:(fun ms -> Vp_cost.Disk.with_seek_time Common.disk (ms /. 1000.))
      ()

let fig13 () =
  (* Buffer-size sweep per scale factor; costs normalized to Column under
     the same (buffer, sf). *)
  let buffers = [ 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 ] in
  let sfs = [ 0.1; 1.0; 10.0; 100.0 ] in
  let render (algo_name : string) =
    let a = Vp_algorithms.Registry.find algo_name in
    let series =
      List.map
        (fun sf ->
          let workloads = Vp_benchmarks.Tpch.workloads ~sf in
          ( Printf.sprintf "SF %g %%" sf,
            List.map
              (fun mb ->
                let profile =
                  Vp_cost.Disk.with_buffer_size Common.disk (Vp_cost.Disk.mb mb)
                in
                let col = column_cost profile workloads in
                100.0 *. reoptimized_cost profile a workloads /. col)
              buffers ))
        sfs
    in
    Vp_report.Chart.series
      ~title:
        (Printf.sprintf
           "Figure 13: %s cost vs Column (=100%%) across buffer sizes and \
            dataset scales"
           algo_name)
      ~x_label:"Buffer (MB)"
      ~xs:(List.map (fun b -> Printf.sprintf "%g" b) buffers)
      series
  in
  render "HillClimb" ^ "\n" ^ render "Navathe"
  ^ "\n(paper: improvements over Column jump between SF 0.1 and 1 for \
     buffers > 1 MB; negligible dataset-size impact elsewhere)\n"
