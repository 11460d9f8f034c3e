open Vp_core

type selection = { attributes : Attr_set.t; selectivity : float }

let fetch_cost (disk : Disk.t) ~matches =
  matches
  *. (disk.seek_time +. (float_of_int disk.block_size /. disk.read_bandwidth))

(* Full-scan cost of one partition given the total referenced row size
   (buffer sharing as in the base model). *)
let scan_partition disk ~rows ~row_size ~total_row_size =
  let blocks = Io_model.partition_blocks disk ~rows ~row_size in
  if blocks = 0 then 0.0
  else begin
    let buff_share = disk.Disk.buffer_size * row_size / total_row_size in
    let blocks_buff = max 1 (buff_share / disk.Disk.block_size) in
    let refills = (blocks + blocks_buff - 1) / blocks_buff in
    (disk.Disk.seek_time *. float_of_int refills)
    +. (float_of_int blocks *. float_of_int disk.Disk.block_size
       /. disk.Disk.read_bandwidth)
  end

let query_cost disk table partitioning query { attributes; selectivity } =
  if not (Attr_set.subset attributes (Query.references query)) then
    invalid_arg "Selection_model: selection attributes outside query footprint";
  if selectivity < 0.0 || selectivity > 1.0 then
    invalid_arg "Selection_model: selectivity outside [0, 1]";
  let rows = Table.row_count table in
  let refs = Query.references query in
  let referenced = Partitioning.referenced_groups partitioning refs in
  let scanned, fetchable =
    List.partition (fun g -> Attr_set.intersects g attributes) referenced
  in
  (* The scanned partitions share the buffer among themselves. *)
  let total_s =
    List.fold_left (fun acc g -> acc + Table.subset_size table g) 0 scanned
  in
  let scan_cost =
    List.fold_left
      (fun acc g ->
        acc
        +. scan_partition disk ~rows ~row_size:(Table.subset_size table g)
             ~total_row_size:total_s)
      0.0 scanned
  in
  let matches = float_of_int rows *. selectivity in
  let rest_cost =
    List.fold_left
      (fun acc g ->
        let s = Table.subset_size table g in
        let full = scan_partition disk ~rows ~row_size:s ~total_row_size:s in
        acc +. min full (fetch_cost disk ~matches))
      0.0 fetchable
  in
  scan_cost +. rest_cost

let workload_cost disk workload selection_of partitioning =
  let table = Workload.table workload in
  Array.fold_left
    (fun acc q ->
      let c =
        match selection_of q with
        | Some sel -> query_cost disk table partitioning q sel
        | None -> Io_model.query_cost disk table partitioning q
      in
      acc +. (Query.weight q *. c))
    0.0
    (Workload.queries workload)

let oracle disk workload selection_of =
  workload_cost disk workload selection_of

let request disk workload selection_of =
  let cost = oracle disk workload selection_of in
  let n = Table.attribute_count (Workload.table workload) in
  Partitioner.Request.make ~delta:(Partitioner.Delta.full ~n cost) ~cost
    workload

let crossover_selectivity (disk : Disk.t) ~rows ~row_size =
  let full = scan_partition disk ~rows ~row_size ~total_row_size:row_size in
  full /. (float_of_int rows *. (disk.seek_time +. (float_of_int disk.block_size /. disk.read_bandwidth)))
