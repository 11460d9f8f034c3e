open Vp_core

let row =
  Partitioner.timed_run ~name:"Row" ~short_name:"Row"
    (fun ~budget:_ ~delta:_ workload _oracle ->
      (Partitioning.row (Table.attribute_count (Workload.table workload)), 0))

let column =
  Partitioner.timed_run ~name:"Column" ~short_name:"Col"
    (fun ~budget:_ ~delta:_ workload _oracle ->
      (Partitioning.column (Table.attribute_count (Workload.table workload)), 0))
