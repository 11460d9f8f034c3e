(* "Watch out for the buffer size" (the paper's lesson 2): vertical
   partitioning beats column layout only for small database buffers. This
   example sweeps the buffer size for one table, re-optimizing HillClimb at
   every setting, and prints where vertical partitioning stops paying off —
   a per-table miniature of the paper's Figure 9.

   Run with: dune exec examples/buffer_tuning.exe [-- table] *)

open Vp_core

let () =
  let table_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lineitem" in
  let workload = Vp_benchmarks.Tpch.workload ~sf:10.0 table_name in
  let n = Table.attribute_count (Workload.table workload) in
  let hillclimb = Vp_algorithms.Hillclimb.algorithm in
  Format.printf
    "Buffer-size sweep on %s: HillClimb re-optimized per setting, costs \
     relative to Column@.@."
    table_name;
  Format.printf "  %-10s %-12s %-12s %-10s %s@." "Buffer" "HillClimb(s)"
    "Column(s)" "HC/Col" "HillClimb groups";
  let ratios =
    List.map
      (fun mb ->
        let disk =
          Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
            (Vp_cost.Disk.mb mb)
        in
        let request = Vp_cost.Io_model.request disk workload in
        let r = Partitioner.exec hillclimb request in
        let column = request.cost (Partitioning.column n) in
        let ratio = r.Partitioner.Response.cost /. column in
        Format.printf "  %-10s %-12.2f %-12.2f %-10.3f %d@."
          (Printf.sprintf "%g MB" mb)
          r.Partitioner.Response.cost column ratio
          (Partitioning.group_count r.Partitioner.Response.partitioning);
        (mb, ratio))
      [ 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 ]
  in
  (* The sweet-spot boundary: the largest buffer at which vertical
     partitioning still beats Column by more than 0.1%. *)
  let last_useful =
    List.fold_left
      (fun acc (mb, ratio) -> if ratio < 0.999 then Some mb else acc)
      None ratios
  in
  (match last_useful with
  | Some mb ->
      Format.printf
        "@.Vertical partitioning stops mattering beyond ~%g MB of buffer — \
         there, use column layout (the paper found ~100 MB).@."
        mb
  | None ->
      Format.printf
        "@.Vertical partitioning never paid off over Column on this \
         table.@.")
