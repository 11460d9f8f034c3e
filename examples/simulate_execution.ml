(* End-to-end run through the storage simulator: generate deterministic
   TPC-H data, load it under three layouts (Row, Column, HillClimb), execute
   the real scan/projection workload block by block, and check the
   simulator's I/O time against the analytic cost model — the validation
   that the cost model driving all the algorithms matches an actual
   buffered-scan execution.

   Run with: dune exec examples/simulate_execution.exe [-- table [sf]] *)

open Vp_core

let () =
  let table_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "partsupp" in
  let sf =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.002
  in
  (* A scaled-down buffer keeps the refill pattern representative at this
     dataset size. *)
  let disk =
    Vp_cost.Disk.make ~buffer_size:(Vp_cost.Disk.mb 0.25) ~block_size:4096 ()
  in
  let workload = Vp_benchmarks.Tpch.workload ~sf table_name in
  let table = Workload.table workload in
  let gen = Vp_datagen.Rowgen.create () in
  let source = Vp_stream.Source.of_rowgen gen table in
  Format.printf "%s at SF %g: %d rows generated deterministically@.@."
    table_name sf
    (Vp_stream.Source.row_count source);
  let n = Table.attribute_count table in
  let hc =
    (Partitioner.exec Vp_algorithms.Hillclimb.algorithm (Vp_cost.Io_model.request disk workload))
      .Partitioner.Response.partitioning
  in
  let layouts =
    [ ("Row", Partitioning.row n); ("Column", Partitioning.column n);
      ("HillClimb", hc) ]
  in
  let reference = ref None in
  List.iter
    (fun (name, layout) ->
      let db =
        Vp_storage.Database.build ~disk ~codec:Vp_storage.Codec.Plain table
          source layout
      in
      let results, total = Vp_storage.Database.run_workload db workload in
      let io =
        List.fold_left
          (fun acc (r : Vp_storage.Database.query_result) ->
            acc +. r.io.Vp_storage.Device.elapsed)
          0.0 results
      in
      let estimated = Vp_cost.Io_model.workload_cost disk workload layout in
      let checksum =
        List.fold_left
          (fun acc (r : Vp_storage.Database.query_result) -> acc + r.checksum)
          0 results
      in
      (match !reference with
      | None -> reference := Some checksum
      | Some c ->
          if c <> checksum then
            failwith "layouts disagree on query results — reconstruction bug");
      Format.printf
        "%-10s simulated I/O %8.4f s | cost model %8.4f s (delta %s) | \
         total with CPU %8.4f s | %s on disk@."
        name io estimated
        (Vp_report.Ascii.percent (abs_float (io -. estimated) /. estimated))
        total
        (Vp_report.Ascii.bytes
           (float_of_int (Vp_storage.Database.bytes_on_disk db))))
    layouts;
  Format.printf
    "@.All three layouts returned identical query results (checksums \
     match).@."
