open Vp_core

let run ?(budget = Vp_robust.Budget.unlimited) ~threshold ~max_candidates
    workload oracle =
  let table = Workload.table workload in
  let n = Table.attribute_count table in
  (* Pairwise normalized mutual information, precomputed once. *)
  let nmi = Array.make_matrix n n 0.0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let v = Mutual_information.normalized workload i j in
      nmi.(i).(j) <- v;
      nmi.(j).(i) <- v
    done
  done;
  (* Benefit of a group: total pairwise NMI captured inside it (additive
     across disjoint groups, so the exact cover maximises the NMI kept
     within partitions). Interestingness = benefit / #pairs. *)
  let group_scores mask =
    let attrs = Attr_set.to_list (Attr_set.of_mask mask) in
    let pairs = ref 0 and total = ref 0.0 in
    let rec go = function
      | [] -> ()
      | i :: rest ->
          List.iter
            (fun j ->
              incr pairs;
              total := !total +. nmi.(i).(j))
            rest;
          go rest
    in
    go attrs;
    (!total /. float_of_int !pairs, !total)
  in
  (* Enumerate all column groups of size >= 2 and keep the interesting
     ones. *)
  let interesting = ref [] in
  let count = ref 0 in
  for mask = 1 to (1 lsl n) - 1 do
    Vp_robust.Budget.tick budget;
    let set = Attr_set.of_mask mask in
    if Attr_set.cardinal set >= 2 then begin
      Partitioner.Counted.note_candidate oracle;
      let interestingness, benefit = group_scores mask in
      if interestingness >= threshold then begin
        incr count;
        interesting := { Knapsack.group = set; benefit } :: !interesting
      end
    end
  done;
  let candidates =
    if !count <= max_candidates then !interesting
    else begin
      let sorted =
        List.stable_sort
          (fun a b -> compare b.Knapsack.benefit a.Knapsack.benefit)
          !interesting
      in
      List.filteri (fun i _ -> i < max_candidates) sorted
    end
  in
  let groups, _benefit = Knapsack.solve ~n candidates in
  (Partitioning.of_groups ~n groups, 1)

let with_threshold ?(max_candidates = 4096) threshold =
  if threshold < 0.0 || threshold > 1.0 then
    invalid_arg "Trojan.with_threshold: threshold outside [0, 1]";
  if max_candidates <= 0 then
    invalid_arg "Trojan.with_threshold: max_candidates <= 0";
  Partitioner.timed_run
    ~name:(Printf.sprintf "Trojan(t=%.2f)" threshold)
    ~short_name:"Tr"
    (fun ~budget ~delta workload oracle ->
      if not (Vp_robust.Budget.is_limited budget) then
        run ~threshold ~max_candidates workload oracle
      else begin
        (* Trojan's group enumeration has no usable intermediate state, so
           the budgeted fallback is the row layout: price it before any
           tick, and keep the knapsack solution only if the run completes
           and beats it. *)
        let n = Table.attribute_count (Workload.table workload) in
        let row = Partitioning.row n in
        let row_cost = Partitioner.Counted.evaluate ~delta oracle row in
        match run ~budget ~threshold ~max_candidates workload oracle with
        | p, iterations -> (
            (* Pricing the knapsack solution is a budget step too; the
               tick and the evaluation sit in the scrutinee so that
               exhaustion here is caught (an [exception] pattern does not
               cover raises in an arm body). *)
            match
              Vp_robust.Budget.tick budget;
              Partitioner.Counted.evaluate ~delta oracle p
            with
            | cost when cost < row_cost -> (p, iterations)
            | _ -> (row, iterations)
            | exception Vp_robust.Budget.Exhausted -> (row, iterations))
        | exception Vp_robust.Budget.Exhausted -> (row, 0)
      end)

(* The default Trojan tunes its pruning threshold with the cost model: the
   candidate generation + knapsack pipeline runs once per threshold and the
   cheapest complete solution wins. This mirrors how the Trojan paper picks
   its final layout among interesting-group packings, keeps the algorithm
   threshold-pruning based, and leaves it the slowest of the six heuristics
   (it enumerates the whole column-group space several times). *)
let default_thresholds = [ 1.0; 0.9; 0.7; 0.5; 0.3 ]

let algorithm =
  Partitioner.timed_run ~name:"Trojan" ~short_name:"Tr"
    (fun ~budget ~delta workload oracle ->
      let best = ref None in
      (* Under a budget — or any cancellable one, which can exhaust at its
         very first tick — seed the incumbent with the row layout (priced
         before any tick) so exhaustion mid-threshold still leaves a valid
         answer; thresholds complete in a deterministic order, so a larger
         budget only ever adds candidates to the min. *)
      if
        Vp_robust.Budget.is_limited budget
        || Vp_robust.Budget.cancellable budget
      then begin
        let n = Table.attribute_count (Workload.table workload) in
        let row = Partitioning.row n in
        best := Some (row, Partitioner.Counted.evaluate ~delta oracle row)
      end;
      (try
         List.iter
           (fun threshold ->
             let p, _ =
               run ~budget ~threshold ~max_candidates:4096 workload oracle
             in
             (* Charge the per-threshold pricing like any other cost
                probe; the surrounding [try] keeps the incumbent on
                exhaustion. *)
             Vp_robust.Budget.tick budget;
             let cost = Partitioner.Counted.evaluate ~delta oracle p in
             match !best with
             | Some (_, c) when c <= cost -> ()
             | _ -> best := Some (p, cost))
           default_thresholds
       with Vp_robust.Budget.Exhausted -> ());
      match !best with
      | Some (p, _) -> (p, List.length default_thresholds)
      | None -> assert false)
