open Vp_core

type t = { cache_line : int; bandwidth : float }

let make ?(cache_line = 64) ?(bandwidth = 10.0 *. 1024.0 *. 1024.0 *. 1024.0)
    () =
  if cache_line <= 0 then invalid_arg "Memory_model: cache_line <= 0";
  if bandwidth <= 0.0 then invalid_arg "Memory_model: bandwidth <= 0";
  { cache_line; bandwidth }

let default = make ()

let query_cost m table partitioning query =
  let rows = Table.row_count table in
  let refs = Query.references query in
  let referenced = Partitioning.referenced_groups partitioning refs in
  List.fold_left
    (fun acc g ->
      let s = Table.subset_size table g in
      let bytes = rows * s in
      let lines = (bytes + m.cache_line - 1) / m.cache_line in
      acc +. (float_of_int (lines * m.cache_line) /. m.bandwidth))
    0.0 referenced

let workload_cost m workload partitioning =
  let table = Workload.table workload in
  Array.fold_left
    (fun acc q -> acc +. (Query.weight q *. query_cost m table partitioning q))
    0.0
    (Workload.queries workload)

let oracle m workload = workload_cost m workload

let request m workload =
  let cost = oracle m workload in
  let n = Table.attribute_count (Workload.table workload) in
  Partitioner.Request.make ~delta:(Partitioner.Delta.full ~n cost) ~cost
    workload
