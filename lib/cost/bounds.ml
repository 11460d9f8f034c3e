open Vp_core

(* Each query's references, weight and needed bytes are computed once
   per workload; a call makes one allocation-free pass per query over
   the blocks, with the float operations in the formula's order. *)
let per_query_bound ~seek_unit ~byte_rate workload =
  let table = Workload.table workload in
  let rows = float_of_int (Table.row_count table) in
  let queries = Workload.queries workload in
  let refs = Array.map Query.references queries in
  let weights = Array.map Query.weight queries in
  let needed =
    Array.map (fun r -> float_of_int (Table.subset_size table r)) refs
  in
  fun ~blocks ~remaining:_ ->
    let blocks = Array.of_list blocks in
    let acc = ref 0.0 in
    for i = 0 to Array.length refs - 1 do
      let r = refs.(i) in
      let seeks = ref 0 and colocated = ref 0 in
      for j = 0 to Array.length blocks - 1 do
        let b = blocks.(j) in
        if Attr_set.intersects b r then begin
          incr seeks;
          colocated := !colocated + Table.subset_size table (Attr_set.diff b r)
        end
      done;
      let bytes = rows *. (needed.(i) +. float_of_int !colocated) in
      acc :=
        !acc
        +. weights.(i)
           *. ((seek_unit *. float_of_int !seeks) +. (bytes /. byte_rate))
    done;
    !acc

let io_brute_force (disk : Disk.t) workload =
  per_query_bound ~seek_unit:disk.seek_time ~byte_rate:disk.read_bandwidth
    workload

let memory_brute_force (m : Memory_model.t) workload =
  per_query_bound ~seek_unit:0.0 ~byte_rate:m.bandwidth workload
