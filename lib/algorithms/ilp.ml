open Vp_core

(* The exact search, framed the way Amossen's integer-programming
   formulation frames it (arXiv:0911.1691): binary variables x[a,b]
   assign atom [a] to block [b], each atom to exactly one block, and the
   objective is the workload cost of the induced layout. The restricted
   growth convention (an atom may join an existing block or open the
   next empty one) removes the symmetric column permutations of the ILP,
   and the branch-and-bound explores the variables in objective order:

   - atoms are branched most-expensive-first — descending total weight
     of the queries referencing them (the atom's coefficient mass in the
     objective), bulkier atom as tie-break — so the relaxation bound
     diverges from the incumbent as early as possible;
   - at each atom the candidate blocks are explored cheapest-bound
     first, which tightens the incumbent sooner than the fixed
     block-index order;
   - partial assignments are fathomed against an admissible relaxation
     bound of the objective (the cost model's per-query seek/scan bound,
     e.g. {!Vp_cost.Bounds.io_brute_force}).

   Everything else — primary-partition atoms, the greedy seed incumbent,
   budget ticks, delta re-costing — is the shared enumeration machinery
   BruteForce uses, so the two exact searches differ only in branching
   strategy and bound. *)

let objective_weight workload =
  let queries = Workload.queries workload in
  fun atom ->
    Array.fold_left
      (fun acc q ->
        if Attr_set.intersects (Query.references q) atom then
          acc +. Query.weight q
        else acc)
      0.0 queries

let search ~atoms ~lower_bound ~max_candidates ~budget ~delta workload oracle =
  let table = Workload.table workload in
  let n = Table.attribute_count table in
  let atom_arr = Array.of_list atoms in
  let weight_of = objective_weight workload in
  let weights = Array.map weight_of atom_arr in
  let order = Array.init (Array.length atom_arr) Fun.id in
  Array.sort
    (fun i j ->
      match compare weights.(j) weights.(i) with
      | 0 -> (
          match
            compare
              (Table.subset_size table atom_arr.(j))
              (Table.subset_size table atom_arr.(i))
          with
          | 0 -> Attr_set.compare atom_arr.(i) atom_arr.(j)
          | c -> c)
      | c -> c)
    order;
  let atom_arr = Array.map (fun i -> atom_arr.(i)) order in
  let m = Array.length atom_arr in
  (* Same space guard as BruteForce: a budget or a bound makes any space
     safe to enter; a bare unbudgeted run refuses hopeless spaces. *)
  (match lower_bound with
  | Some _ -> ()
  | None when Vp_robust.Budget.is_limited budget -> ()
  | None ->
      let space = if m <= 22 then Enumeration.bell_exact m else max_int in
      if space > max_candidates then
        invalid_arg
          (Printf.sprintf
             "Ilp: search space B(%d) = %d exceeds %d candidates and no \
              lower bound was provided"
             m space max_candidates));
  let cache = Partitioner.Memo.create () in
  let cost_of =
    match delta with
    | None -> Partitioner.Memo.counted cache oracle
    | Some s ->
        fun p ->
          Partitioner.Memo.counted_via cache oracle
            ~compute:(fun () -> s.Partitioner.Delta.goto p)
            p
  in
  (* Incumbent before anything can tick, so a cancelled or exhausted run
     still answers with a valid layout no worse than Row. *)
  let best = ref (Partitioning.row n) in
  let best_cost =
    ref
      (if Vp_robust.Budget.is_limited budget then cost_of !best else infinity)
  in
  let seed, _ =
    Merge_search.climb ~cache ?delta ~budget ~n oracle (Array.to_list atom_arr)
  in
  (let seed_cost = cost_of seed in
   if seed_cost < !best_cost then begin
     best := seed;
     best_cost := seed_cost
   end);
  let remaining = Array.make (m + 1) Attr_set.empty in
  for i = m - 1 downto 0 do
    remaining.(i) <- Attr_set.union remaining.(i + 1) atom_arr.(i)
  done;
  let blocks = Array.make m Attr_set.empty in
  let rec assign i used =
    Vp_robust.Budget.tick budget;
    if i = m then begin
      let groups = Array.to_list (Array.sub blocks 0 used) in
      let candidate = Partitioning.of_groups ~n groups in
      let cost = cost_of candidate in
      if cost < !best_cost then begin
        best_cost := cost;
        best := candidate
      end
    end
    else begin
      (* Atom [i] joins one of the [used] blocks or opens block [used].
         With a bound, children are visited cheapest-bound-first (ties by
         block index, so the order is deterministic and independent of
         the incumbent — the degradation contract needs that). *)
      let bound_for j =
        match lower_bound with
        | None -> 0.0
        | Some lb ->
            let saved = blocks.(j) in
            blocks.(j) <- Attr_set.union saved atom_arr.(i);
            let used' = if j = used then used + 1 else used in
            let partial = Array.to_list (Array.sub blocks 0 used') in
            let b = lb ~blocks:partial ~remaining:remaining.(i + 1) in
            blocks.(j) <- saved;
            b
      in
      let children = Array.init (used + 1) (fun j -> (bound_for j, j)) in
      if lower_bound <> None then
        Array.sort
          (fun (ba, ja) (bb, jb) ->
            match compare ba bb with 0 -> compare ja jb | c -> c)
          children;
      Array.iter
        (fun (bound, j) ->
          if lower_bound = None || bound < !best_cost then begin
            let saved = blocks.(j) in
            blocks.(j) <- Attr_set.union saved atom_arr.(i);
            let used' = if j = used then used + 1 else used in
            assign (i + 1) used';
            blocks.(j) <- saved
          end)
        children
    end
  in
  (try assign 0 0 with Vp_robust.Budget.Exhausted -> ());
  (!best, m)

let make ?(use_atoms = true) ?(max_candidates = 5_000_000) ?lower_bound () =
  Partitioner.timed_run_delta ~name:"ILP" ~short_name:"IP"
    (fun ~budget ~delta workload oracle ->
      let atoms =
        if use_atoms then Workload.primary_partitions workload
        else
          List.init
            (Table.attribute_count (Workload.table workload))
            Attr_set.singleton
      in
      let lower_bound =
        Option.map (fun factory -> factory workload) lower_bound
      in
      search ~atoms ~lower_bound ~max_candidates ~budget ~delta workload oracle)

let with_bound disk = make ~lower_bound:(Vp_cost.Bounds.io_brute_force disk) ()

let algorithm = make ()
