open Vp_core

type t = { groups : (int list * Partitioning.t) list }

let sub_workload workload indices =
  let queries = Workload.queries workload in
  Workload.make (Workload.table workload)
    (List.map (fun i -> queries.(i)) indices)

let build ~replicas ~algorithm ~request workload =
  if replicas <= 0 then invalid_arg "Replication.build: replicas <= 0";
  let groups = Query_grouping.group workload ~k:replicas in
  let laid_out =
    List.map
      (fun indices ->
        let sub = sub_workload workload indices in
        let result = Partitioner.exec algorithm (request sub) in
        (indices, result.Partitioner.Response.partitioning))
      groups
  in
  { groups = laid_out }

let workload_cost ~request workload t =
  List.fold_left
    (fun acc (indices, partitioning) ->
      let sub = sub_workload workload indices in
      acc +. (request sub).Partitioner.Request.cost partitioning)
    0.0 t.groups

let storage_factor _workload t = float_of_int (List.length t.groups)

let replica_count t = List.length t.groups

let layouts t = List.map snd t.groups
