open Vp_core

let run_with_k k ~budget ~delta workload oracle =
  let table = Workload.table workload in
  let n = Table.attribute_count table in
  let primaries = Array.of_list (Workload.primary_partitions workload) in
  let node_count = Array.length primaries in
  (* Affinity graph over primary partitions: edge weight = total weight of
     queries referencing both endpoints. *)
  let edges = ref [] in
  for i = 0 to node_count - 2 do
    for j = i + 1 to node_count - 1 do
      let weight =
        Array.fold_left
          (fun acc q ->
            let refs = Query.references q in
            if Attr_set.intersects refs primaries.(i)
               && Attr_set.intersects refs primaries.(j)
            then acc +. Query.weight q
            else acc)
          0.0 (Workload.queries workload)
      in
      if weight > 0.0 then
        edges := { Graph_partition.a = i; b = j; weight } :: !edges
    done
  done;
  let labels = Graph_partition.partition ~node_count ~max_size:k !edges in
  (* Subgraph id of each attribute: the label of its primary partition. *)
  let attr_label = Array.make n (-1) in
  Array.iteri
    (fun node prim ->
      Attr_set.iter (fun a -> attr_label.(a) <- labels.(node)) prim)
    primaries;
  let same_subgraph g1 g2 =
    attr_label.(Attr_set.min_elt g1) = attr_label.(Attr_set.min_elt g2)
  in
  (* Phase 1: merge within subgraphs only. *)
  let intra, iters1 =
    Merge_search.climb ~allowed:same_subgraph ~delta ~budget ~n oracle
      (Array.to_list primaries)
  in
  (* Phase 2: try combining partitions across subgraphs. *)
  let final, iters2 =
    Merge_search.climb ~delta ~budget ~n oracle (Partitioning.groups intra)
  in
  (final, iters1 + iters2)

let with_k k =
  if k <= 0 then invalid_arg "Hyrise.with_k: k <= 0";
  Partitioner.timed_run
    ~name:(Printf.sprintf "HYRISE(k=%d)" k)
    ~short_name:"HY" (run_with_k k)

let algorithm =
  Partitioner.timed_run ~name:"HYRISE" ~short_name:"HY" (run_with_k 4)
