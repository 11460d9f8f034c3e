open Vp_core

let algorithm =
  Partitioner.timed_run ~name:"HillClimb" ~short_name:"HC"
    (fun ~budget ~delta workload oracle ->
      let n = Table.attribute_count (Workload.table workload) in
      let start = Partitioning.groups (Partitioning.column n) in
      Merge_search.climb ~delta ~budget ~n oracle start)

let with_dictionary =
  Partitioner.timed_run ~name:"HillClimb+dict" ~short_name:"HCd"
    (fun ~budget ~delta workload oracle ->
      let n = Table.attribute_count (Workload.table workload) in
      (* Dictionary of evaluated candidate costs, keyed by the canonical
         partitioning. Mimics the original algorithm's column-group cost
         cache: repeated candidates are served from the table instead of
         the cost model. *)
      let dictionary : (string, float) Hashtbl.t = Hashtbl.create 4096 in
      let cached_cost p =
        let key = Partitioning.to_string p in
        match Hashtbl.find_opt dictionary key with
        | Some c ->
            Partitioner.Counted.note_candidate oracle;
            c
        | None ->
            let c = Partitioner.Counted.evaluate ~delta oracle p in
            Hashtbl.add dictionary key c;
            c
      in
      (* On exhaustion the partially scanned neighbourhood is discarded and
         the incumbent returned, as in [Merge_search.climb]. *)
      let scan_best arr k =
        let best = ref None in
        for i = 0 to k - 2 do
          for j = i + 1 to k - 1 do
            Vp_robust.Budget.tick budget;
            let candidate_groups =
              Attr_set.union arr.(i) arr.(j)
              :: (Array.to_list arr
                 |> List.filteri (fun x _ -> x <> i && x <> j))
            in
            let candidate = Partitioning.of_groups ~n candidate_groups in
            let cost = cached_cost candidate in
            match !best with
            | Some (_, c) when c <= cost -> ()
            | _ -> best := Some (candidate, cost)
          done
        done;
        !best
      in
      let rec go groups current current_cost iterations =
        let arr = Array.of_list groups in
        let k = Array.length arr in
        match scan_best arr k with
        | Some (candidate, cost) when cost < current_cost ->
            go (Partitioning.groups candidate) candidate cost (iterations + 1)
        | Some _ | None -> (current, iterations)
        | exception Vp_robust.Budget.Exhausted -> (current, iterations)
      in
      let start = Partitioning.column n in
      if Vp_robust.Budget.exhausted budget then (start, 0)
      else
        let start_cost = cached_cost start in
        go (Partitioning.groups start) start start_cost 0)
