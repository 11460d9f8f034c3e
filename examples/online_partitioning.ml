(* Online vertical partitioning with O2P: queries arrive one at a time and
   the layout evolves as the affinity matrix and its clustering are
   maintained incrementally — no offline optimization step.

   The example streams the TPC-H queries that touch Lineitem and prints the
   layout O2P holds after each arrival, together with the estimated cost of
   that layout on the queries seen so far.

   Run with: dune exec examples/online_partitioning.exe *)

open Vp_core

let () =
  let disk = Vp_cost.Disk.default in
  let workload = Vp_benchmarks.Tpch.workload ~sf:10.0 "lineitem" in
  let table = Workload.table workload in
  Format.printf
    "Streaming %d Lineitem queries through O2P (table has %d attributes)@.@."
    (Workload.query_count workload)
    (Table.attribute_count table);
  let evolution =
    Vp_algorithms.O2p.online workload (fun prefix ->
        Vp_cost.Io_model.oracle disk prefix)
  in
  let previous = ref None in
  List.iter
    (fun (seen, layout, prefix_cost) ->
      let changed =
        match !previous with
        | Some p -> not (Partitioning.equal p layout)
        | None -> true
      in
      previous := Some layout;
      let q = Workload.query workload (seen - 1) in
      Format.printf "after %-4s (%2d seen)  cost %8.2f s  %s %d groups@."
        (Query.name q) seen prefix_cost
        (if changed then "-> layout changed," else "   layout stable, ")
        (Partitioning.group_count layout);
      if changed then
        Format.printf "      %a@." (Partitioning.pp_named table) layout)
    evolution;
  (* Contrast the final online layout against offline HillClimb. *)
  let request = Vp_cost.Io_model.request disk workload in
  let final = Partitioner.exec Vp_algorithms.O2p.algorithm request in
  let hc = Partitioner.exec Vp_algorithms.Hillclimb.algorithm request in
  Format.printf "@.final O2P cost:      %8.2f s@." final.Partitioner.Response.cost;
  Format.printf "offline HillClimb:   %8.2f s (the price of being online)@."
    hc.Partitioner.Response.cost
