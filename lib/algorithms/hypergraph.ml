open Vp_core

(* Hypergraph partitioner (arXiv:1309.1556 style): the workload is a
   hypergraph whose vertices are the primary-partition atoms and whose
   hyperedges are the queries — a query pins every atom it references,
   weighted by its frequency. A fragment layout is a vertex partition,
   and the classic connectivity metric

     cut(P) = sum_q w_q * (lambda_q - 1)

   (lambda_q = number of blocks query q touches) counts exactly the
   extra seeks the layout charges the workload. The search is the
   standard two-phase shape: heavy-edge coarsening (merge the pair of
   blocks with the heaviest connecting hyperedge weight) followed by
   FM-style boundary refinement (move one atom across the cut) — but
   every candidate is priced by the request's cost oracle and committed
   only when the true cost improves, so the connectivity heuristic
   steers the search while the paper's cost model keeps the score.

   Hyperedge weights come from query bitsets: one per atom, built once
   per search, and one per block, built at the start of each coarsening
   or refinement round. Merges and moves are both priced by the
   request's session from the incumbent. *)

let connectivity_cut workload partitioning =
  let queries = Workload.queries workload in
  Array.fold_left
    (fun acc q ->
      let refs = Query.references q in
      let lambda =
        List.fold_left
          (fun k g -> if Attr_set.intersects g refs then k + 1 else k)
          0
          (Partitioning.groups partitioning)
      in
      acc +. (Query.weight q *. float_of_int (max 0 (lambda - 1))))
    0.0 queries

let sort_blocks = List.sort Attr_set.compare

let search ~budget ~delta workload oracle =
  let n = Table.attribute_count (Workload.table workload) in
  let weights = Array.map Query.weight (Workload.queries workload) in
  (* A set's hyperedges are its query bitset. *)
  let query_bits = Workload.query_bits workload in
  let bits = Attr_set.max_attributes in
  (* Total weight of the hyperedges pinning both sets, given as query
     bitsets: the set bits of their AND, added in ascending query order. *)
  let edge_weight a b =
    let acc = ref 0.0 in
    for w = 0 to Array.length a - 1 do
      let x = ref (a.(w) land b.(w)) in
      while !x <> 0 do
        acc := !acc +. weights.((w * bits) + Attr_set.lowest_bit_index !x);
        x := !x land (!x - 1)
      done
    done;
    !acc
  in
  let atoms = sort_blocks (Workload.primary_partitions workload) in
  let atom_bits = List.map (fun a -> (a, query_bits a)) atoms in
  (* The session stays based at the incumbent: a candidate is priced by
     [price], a merge or move from there, and only a commit builds the
     candidate's partitioning and rebases the session. *)
  let blocks = ref atoms in
  (* The start layout is costed before anything can tick, so even a
     zero-step (or already-cancelled) budget answers with a valid
     incumbent. *)
  let best = ref (Partitioning.of_groups ~n !blocks) in
  let best_cost = ref (Partitioner.Counted.evaluate ~delta oracle !best) in
  let commits = ref 0 in
  (* [!best] is always the partitioning of [!blocks], so candidates are
     built from it by merge/split; [blocks] stays in mask order, which
     fixes the search order below. *)
  let commit candidate cost =
    best := candidate;
    best_cost := cost;
    blocks := sort_blocks (Partitioning.groups candidate);
    incr commits;
    true
  in
  let try_candidate candidate price =
    Vp_robust.Budget.tick budget;
    let cost = Partitioner.Counted.probe oracle price in
    cost < !best_cost
    &&
    let candidate = candidate !best in
    delta.Partitioner.Delta.goto candidate;
    commit candidate cost
  in
  (* Coarsening: candidate merges in descending connecting-hyperedge
     weight (canonical block order breaks ties), committing the first
     that improves the oracle cost; rescore and repeat. Zero-weight
     pairs are never tried — merging blocks no query co-accesses only
     adds scan waste. *)
  let coarsen () =
    let improved = ref true in
    let progress = ref false in
    while !improved do
      improved := false;
      let bs = Array.of_list !blocks in
      let qs = Array.map query_bits bs in
      let k = Array.length bs in
      let pairs = ref [] in
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          let w = edge_weight qs.(i) qs.(j) in
          if w > 0.0 then pairs := (w, i, j) :: !pairs
        done
      done;
      let pairs =
        List.sort
          (fun (wa, ia, ja) (wb, ib, jb) ->
            match compare wb wa with
            | 0 -> compare (ia, ja) (ib, jb)
            | c -> c)
          !pairs
      in
      (try
         List.iter
           (fun (_, i, j) ->
             let merge p = Partitioning.merge_groups p bs.(i) bs.(j) in
             let price () = delta.Partitioner.Delta.cost_merge bs.(i) bs.(j) in
             if try_candidate merge price then raise Exit)
           pairs
       with Exit ->
         improved := true;
         progress := true)
    done;
    !progress
  in
  (* Refinement: FM-style single-atom moves across the cut. An atom is a
     boundary vertex when some query references both its block and
     another one; moving it to each block a shared hyperedge connects it
     to is a candidate. Passes repeat until none improves. *)
  let refine () =
    let improved = ref true in
    let progress = ref false in
    while !improved do
      improved := false;
      let bs = Array.of_list !blocks in
      let qs = Array.map query_bits bs in
      (try
         Array.iteri
           (fun i src ->
             List.iter
               (fun (atom, atom_qs) ->
                 Array.iteri
                   (fun j dst ->
                     if j <> i && edge_weight atom_qs qs.(j) > 0.0 then begin
                       let move p =
                         if Attr_set.equal atom src then
                           Partitioning.merge_groups p src dst
                         else
                           Partitioning.merge_groups
                             (Partitioning.split_group p src atom)
                             atom dst
                       in
                       let price () =
                         delta.Partitioner.Delta.cost_move atom src dst
                       in
                       if try_candidate move price then raise Exit
                     end)
                   bs)
               (List.filter (fun (a, _) -> Attr_set.subset a src) atom_bits))
           bs
       with Exit ->
         improved := true;
         progress := true)
    done;
    !progress
  in
  (try
     let continue_ = ref true in
     while !continue_ do
       let a = coarsen () in
       let b = refine () in
       continue_ := a || b
     done
   with Vp_robust.Budget.Exhausted -> ());
  (!best, !commits)

let make () = Partitioner.timed_run ~name:"Hypergraph" ~short_name:"HG" search

let algorithm = make ()
