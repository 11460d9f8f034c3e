open Vp_core

let algorithm =
  Partitioner.timed_run ~name:"AutoPart" ~short_name:"AP"
    (fun ~budget ~delta workload oracle ->
      let n = Table.attribute_count (Workload.table workload) in
      let atomic_fragments = Workload.primary_partitions workload in
      Merge_search.climb ~delta ~budget ~n oracle atomic_fragments)
