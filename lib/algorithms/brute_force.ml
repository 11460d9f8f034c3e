open Vp_core

type lower_bound = blocks:Attr_set.t list -> remaining:Attr_set.t -> float

let search ~atoms ~lower_bound ~max_candidates ~budget ~delta workload oracle =
  let n = Table.attribute_count (Workload.table workload) in
  let atom_arr = Array.of_list atoms in
  (* Wide atoms first: placing bulky attribute groups early lets the lower
     bound detect costly co-locations near the root of the search tree. *)
  let table = Workload.table workload in
  Array.sort
    (fun a b -> compare (Table.subset_size table b) (Table.subset_size table a))
    atom_arr;
  let m = Array.length atom_arr in
  (* A budget makes any search space safe to enter: enumeration stops at
     exhaustion with the best-so-far incumbent, so the up-front space
     guard only applies to unbudgeted runs. *)
  (match lower_bound with
  | Some _ -> ()
  | None when Vp_robust.Budget.is_limited budget -> ()
  | None ->
      let space = if m <= 22 then Enumeration.bell_exact m else max_int in
      if space > max_candidates then
        invalid_arg
          (Printf.sprintf
             "Brute_force: search space B(%d) = %d exceeds %d candidates and \
              no lower bound was provided"
             m space max_candidates));
  (* Per-run cost cache: the seed climb re-costs almost the same
     neighbourhood each iteration, and the enumeration below revisits the
     seed and climb intermediates. *)
  let cache = Partitioner.Memo.create () in
  let cost_of =
    match delta with
    | None -> Partitioner.Memo.counted cache oracle
    | Some s ->
        (* Successive enumeration leaves differ in the placement of the
           last few atoms, so [goto] re-costs only the queries touching
           those; cache keys and hit/miss traffic stay those of the full
           path. *)
        fun p ->
          Partitioner.Memo.counted_via cache oracle
            ~compute:(fun () -> s.Partitioner.Delta.goto p)
            p
  in
  (* Under a budget, cost the row layout before anything can tick so the
     incumbent is defined (and never worse than Row) even if the budget is
     exhausted during the seed climb. *)
  let best = ref (Partitioning.row n) in
  let best_cost =
    ref
      (if Vp_robust.Budget.is_limited budget then cost_of !best else infinity)
  in
  (* Seed the incumbent with a greedy bottom-up merge of the atoms. *)
  let seed, _ =
    Merge_search.climb ~cache ?delta ~budget ~n oracle (Array.to_list atom_arr)
  in
  (let seed_cost = cost_of seed in
   if seed_cost < !best_cost then begin
     best := seed;
     best_cost := seed_cost
   end);
  (* remaining.(i) = union of atoms i..m-1. *)
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
    else
      (* Atom [i] joins one of the [used] blocks or opens block [used]. *)
      for j = 0 to used do
        let saved = blocks.(j) in
        blocks.(j) <- Attr_set.union saved atom_arr.(i);
        let used' = if j = used then used + 1 else used in
        let prune =
          match lower_bound with
          | None -> false
          | Some lb ->
              let partial =
                Array.to_list (Array.sub blocks 0 used')
              in
              lb ~blocks:partial ~remaining:remaining.(i + 1) >= !best_cost
        in
        if not prune then assign (i + 1) used';
        blocks.(j) <- saved
      done
  in
  (* Exhaustion abandons the rest of the enumeration; the incumbent is the
     cheapest fully evaluated candidate, at worst the row layout. *)
  (try assign 0 0 with Vp_robust.Budget.Exhausted -> ());
  (!best, m)

let make ?(use_atoms = true) ?(max_candidates = 5_000_000) ?lower_bound () =
  Partitioner.timed_run_delta ~name:"BruteForce" ~short_name:"BF"
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

let algorithm = make ()
