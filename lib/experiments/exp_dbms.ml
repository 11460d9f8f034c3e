(** E16 — Table 7: TPC-H workload runtimes in a column-grouping DBMS under
    two compression schemes.

    The paper measured a commercial column store (DBMS-X). We substitute
    the storage simulator: generated TPC-H data (scaled down — the
    simulator materialises every block) is loaded into Row, Column and
    HillClimb layouts under a variable-length codec (the "default
    LZO/delta" configuration) and a fixed-width dictionary codec, and the
    unmodified scan/projection workload is executed with full I/O + CPU
    accounting. Like the paper, query Q9 is excluded.

    The reproduced shape: Row slowest by far under both schemes; Column
    beats the HillClimb column grouping under varlen compression (variable
    stride makes in-group tuple reconstruction expensive) and the gap
    narrows under dictionary compression. *)

open Vp_core

let sim_sf = 0.005

let excluded_query = "Q9"

(* DBMS-X ran on a 16 GB machine against ~3 GB of compressed SF-10 data —
   effectively cache-resident, so seeks play almost no role and runtimes
   are dominated by scan bytes and decompression/reconstruction CPU. The
   simulated profile mirrors that: a buffer larger than the dataset and a
   near-zero (cached) seek cost. *)
let sim_disk =
  Vp_cost.Disk.make ~block_size:4096
    ~buffer_size:(Vp_cost.Disk.mb 64.0)
    ~seek_time:2e-5 ()

let layout_for name workload =
  let n = Table.attribute_count (Workload.table workload) in
  match name with
  | "Row" -> Partitioning.row n
  | "Column" -> Partitioning.column n
  | algo_name ->
      let a = Vp_algorithms.Registry.find algo_name in
      (Partitioner.exec a (Vp_cost.Io_model.request sim_disk workload)).Partitioner.Response.partitioning

let drop_excluded workload =
  Workload.make (Workload.table workload)
    (Array.to_list (Workload.queries workload)
    |> List.filter (fun q -> Query.name q <> excluded_query))

let run_layout ~codec layouts =
  List.fold_left
    (fun acc (workload, partitioning, source) ->
      let workload = drop_excluded workload in
      (* The block-by-block simulation is the slowest part of the
         catalogue; skip the remaining tables once the cell's budget is
         gone so a deadlined sweep degrades to a partial total. *)
      if Vp_robust.Budget.exhausted (Vp_robust.Budget.current ()) then acc
      else if Workload.query_count workload = 0 then acc
      else begin
        let db =
          Vp_storage.Database.build ~disk:sim_disk ~codec
            (Workload.table workload) source partitioning
        in
        let _, total = Vp_storage.Database.run_workload db workload in
        acc +. total
      end)
    0.0 layouts

let table7 () =
  let gen = Vp_datagen.Rowgen.create () in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:sim_sf in
  let with_sources =
    List.map
      (fun w -> (w, Vp_stream.Source.of_rowgen gen (Workload.table w)))
      workloads
  in
  let layouts name =
    List.map
      (fun (w, source) -> (w, layout_for name w, source))
      with_sources
  in
  let cell codec name = run_layout ~codec (layouts name) in
  let render v = Printf.sprintf "%.3f" v in
  let rows =
    List.map
      (fun (codec, label) ->
        [
          label;
          render (cell codec "Row");
          render (cell codec "Column");
          render (cell codec "HillClimb");
        ])
      [
        (Vp_storage.Codec.Varlen, "Default (varlen, LZO-like)");
        (Vp_storage.Codec.Dictionary, "Dictionary");
      ]
  in
  Vp_report.Ascii.table
    ~title:
      (Printf.sprintf
         "Table 7: Simulated TPC-H workload runtimes (s, SF %g, Q9 \
          excluded) per layout and compression scheme\n\
          (paper, DBMS-X @ SF 10: default LZO/delta Row 1652 / Column 377 / \
          HillClimb 450; dictionary Row 1265 / Column 511 / HillClimb 532)"
         sim_sf)
    ~headers:[ "Compression"; "Row"; "Column"; "HillClimb" ]
    rows
