open Vp_core

type merge = {
  merged : Partitioning.t;
  merged_cost : float;
  group_a : Attr_set.t;
  group_b : Attr_set.t;
}

let best_pair_merge ?(allowed = fun _ _ -> true) ~delta
    ?(budget = Vp_robust.Budget.unlimited) ~n oracle groups =
  let arr = Array.of_list groups in
  let k = Array.length arr in
  if k < 2 then None
  else begin
    (* Rebase the session at the scanned partitioning first: the pair
       peeks below price merges from the base. *)
    let base = Partitioning.of_groups ~n groups in
    delta.Partitioner.Delta.goto base;
    (* The cheapest pair so far, as indices: the scan builds no
       partitioning of its own, only the winner's. *)
    let best_i = ref (-1) and best_j = ref (-1) and best_cost = ref infinity in
    for i = 0 to k - 2 do
      for j = i + 1 to k - 1 do
        if allowed arr.(i) arr.(j) then begin
          Vp_robust.Budget.tick budget;
          let cost =
            Partitioner.Counted.probe oracle (fun () ->
                delta.Partitioner.Delta.cost_merge arr.(i) arr.(j))
          in
          if !best_i < 0 || not (!best_cost <= cost) then begin
            best_i := i;
            best_j := j;
            best_cost := cost
          end
        end
      done
    done;
    if !best_i < 0 then None
    else
      let a = arr.(!best_i) and b = arr.(!best_j) in
      Some
        {
          merged = Partitioning.merge_groups base a b;
          merged_cost = !best_cost;
          group_a = a;
          group_b = b;
        }
  end

let climb ?(allowed = fun _ _ -> true) ~delta
    ?(budget = Vp_robust.Budget.unlimited) ~n oracle groups =
  (* A partially scanned neighbourhood may miss the best merge, so on
     exhaustion we abandon the interrupted scan and return the incumbent:
     each committed merge was strictly cheaper, keeping the best-so-far
     cost monotone in the budget. *)
  let rec go groups current current_cost iterations =
    match best_pair_merge ~allowed ~delta ~budget ~n oracle groups with
    | Some m when m.merged_cost < current_cost ->
        go (Partitioning.groups m.merged) m.merged m.merged_cost (iterations + 1)
    | Some _ | None -> (current, iterations)
    | exception Vp_robust.Budget.Exhausted -> (current, iterations)
  in
  let start = Partitioning.of_groups ~n groups in
  if Vp_robust.Budget.exhausted budget then (start, 0)
  else
    let start_cost = Partitioner.Counted.evaluate ~delta oracle start in
    go groups start start_cost 0
