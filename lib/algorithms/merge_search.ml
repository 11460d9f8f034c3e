open Vp_core

type merge = {
  merged : Partitioning.t;
  merged_cost : float;
  group_a : Attr_set.t;
  group_b : Attr_set.t;
}

(* Candidate evaluation, optionally memoized through a per-run search
   memo, which only ever sees one (workload, disk) instance — the oracle
   it wraps. With a delta session, the number comes from [session.goto]
   (rebasing the session at [p]) through [Counted.probe] / [counted_via],
   so budgets, statistics, fault indices and memo hit/miss sequences are
   exactly those of the full-cost path. *)
let evaluator ?cache ?delta oracle =
  match delta with
  | None -> (
      match cache with
      | None -> Partitioner.Counted.cost oracle
      | Some c -> Partitioner.Memo.counted c oracle)
  | Some s -> (
      let compute p () = s.Partitioner.Delta.goto p in
      match cache with
      | None ->
          fun p -> Partitioner.Counted.probe oracle (compute p)
      | Some c ->
          fun p ->
            Partitioner.Memo.counted_via c oracle ~compute:(compute p) p)

let best_pair_merge ?(allowed = fun _ _ -> true) ?cache ?delta
    ?(budget = Vp_robust.Budget.unlimited) ~n oracle groups =
  let arr = Array.of_list groups in
  let k = Array.length arr in
  if k < 2 then None
  else begin
    (* Rebase the session at the scanned partitioning first: a cache hit
       on an earlier evaluation may have skipped [goto], leaving the
       session based elsewhere. Rebasing to the current base is free. *)
    let base = Partitioning.of_groups ~n groups in
    (match delta with
    | Some s -> ignore (s.Partitioner.Delta.goto base)
    | None -> ());
    (* A candidate partitioning is built only when something reads it:
       the full oracle, the memo key, or a new incumbent. A delta peek
       without a memo prices the merge from the two groups alone. *)
    let pair_cost =
      match delta with
      | None ->
          let cost_of = evaluator ?cache oracle in
          fun candidate _ _ -> cost_of (Lazy.force candidate)
      | Some s -> (
          let compute i j () = s.Partitioner.Delta.cost_merge arr.(i) arr.(j) in
          match cache with
          | None ->
              fun _ i j -> Partitioner.Counted.probe oracle (compute i j)
          | Some c ->
              fun candidate i j ->
                Partitioner.Memo.counted_via c oracle ~compute:(compute i j)
                  (Lazy.force candidate))
    in
    let best = ref None in
    for i = 0 to k - 2 do
      for j = i + 1 to k - 1 do
        if allowed arr.(i) arr.(j) then begin
          Vp_robust.Budget.tick budget;
          let candidate = lazy (Partitioning.merge_groups base arr.(i) arr.(j)) in
          let cost = pair_cost candidate i j in
          match !best with
          | Some m when m.merged_cost <= cost -> ()
          | _ ->
              best :=
                Some
                  {
                    merged = Lazy.force candidate;
                    merged_cost = cost;
                    group_a = arr.(i);
                    group_b = arr.(j);
                  }
        end
      done
    done;
    !best
  end

let climb ?(allowed = fun _ _ -> true) ?cache ?delta
    ?(budget = Vp_robust.Budget.unlimited) ~n oracle groups =
  (* A partially scanned neighbourhood may miss the best merge, so on
     exhaustion we abandon the interrupted scan and return the incumbent:
     each committed merge was strictly cheaper, keeping the best-so-far
     cost monotone in the budget. *)
  let rec go groups current current_cost iterations =
    match best_pair_merge ~allowed ?cache ?delta ~budget ~n oracle groups with
    | Some m when m.merged_cost < current_cost ->
        go (Partitioning.groups m.merged) m.merged m.merged_cost (iterations + 1)
    | Some _ | None -> (current, iterations)
    | exception Vp_robust.Budget.Exhausted -> (current, iterations)
  in
  let start = Partitioning.of_groups ~n groups in
  if Vp_robust.Budget.exhausted budget then (start, 0)
  else
    let start_cost = evaluator ?cache ?delta oracle start in
    go groups start start_cost 0
