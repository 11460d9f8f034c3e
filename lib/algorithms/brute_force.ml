open Vp_core

type lower_bound = Attr_set.t array -> Vp_cost.Bounds.search

let branch_and_bound ~name ~short_name ~order_atoms ~cheapest_first
    ?(use_atoms = true) ?(max_candidates = 5_000_000) ?lower_bound () =
  Partitioner.timed_run ~name ~short_name
  @@ fun ~budget ~delta workload oracle ->
  let n = Table.attribute_count (Workload.table workload) in
  let atom_arr =
    order_atoms workload
      (if use_atoms then Array.of_list (Workload.primary_partitions workload)
       else Array.init n Attr_set.singleton)
  in
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
             "%s: search space B(%d) = %d exceeds %d candidates and no \
              lower bound was provided"
             name m space max_candidates));
  let cost_of p = Partitioner.Counted.evaluate ~delta oracle p in
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
    Merge_search.climb ~delta ~budget ~n oracle (Array.to_list atom_arr)
  in
  (let seed_cost = cost_of seed in
   if seed_cost < !best_cost then begin
     best := seed;
     best_cost := seed_cost
   end);
  let bound = Option.map (fun lb -> lb workload atom_arr) lower_bound in
  let blocks = Array.make m Attr_set.empty in
  (* Depth [i]'s child bounds and visiting order sit at [i * m]; a node
     at depth [i] has at most [i + 1] children. *)
  let child_bound = Array.make (m * m) 0.0 and order = Array.make (m * m) 0 in
  (* A leaf is priced from its blocks by the session's [cost_blocks];
     only a new incumbent is built here. *)
  let leaf used =
    let cost =
      Partitioner.Counted.probe oracle (fun () ->
          delta.Partitioner.Delta.cost_blocks blocks used)
    in
    if cost < !best_cost then begin
      best_cost := cost;
      best :=
        Partitioning.of_groups ~n (Array.to_list (Array.sub blocks 0 used))
    end
  in
  let rec assign i used =
    Vp_robust.Budget.tick budget;
    if i = m then leaf used
    else
      (* Atom [i] joins one of the [used] blocks or opens block [used]. *)
      match bound with
      | None ->
          for j = 0 to used do
            place i j used
          done
      | Some b ->
          (* Bounds do not depend on the incumbent, so computing them all
             up front prunes exactly what computing each before its
             visit would. Cheapest-first orders children by bound, ties
             by block index — deterministic and independent of the
             incumbent, as the degradation contract needs. *)
          let base = i * m in
          for j = 0 to used do
            let c = base + j in
            child_bound.(c) <- b.Vp_cost.Bounds.child i j;
            let k = ref c in
            if cheapest_first then
              while
                !k > base && child_bound.(order.(!k - 1)) > child_bound.(c)
              do
                order.(!k) <- order.(!k - 1);
                decr k
              done;
            order.(!k) <- c
          done;
          for k = base to base + used do
            let c = order.(k) in
            if child_bound.(c) < !best_cost then begin
              b.descend i (c - base);
              place i (c - base) used;
              b.ascend i (c - base)
            end
          done
  and place i j used =
    let saved = blocks.(j) in
    blocks.(j) <- Attr_set.union saved atom_arr.(i);
    assign (i + 1) (if j = used then used + 1 else used);
    blocks.(j) <- saved
  in
  (* Exhaustion abandons the rest of the enumeration; the incumbent is the
     cheapest fully evaluated candidate, at worst the row layout. *)
  (try assign 0 0 with Vp_robust.Budget.Exhausted -> ());
  (!best, m)

(* Wide atoms first: placing bulky attribute groups early lets the lower
   bound detect costly co-locations near the root of the search tree. *)
let widest_first workload atoms =
  let table = Workload.table workload in
  Array.sort
    (fun a b -> compare (Table.subset_size table b) (Table.subset_size table a))
    atoms;
  atoms

let make =
  branch_and_bound ~name:"BruteForce" ~short_name:"BF"
    ~order_atoms:widest_first ~cheapest_first:false

let algorithm = make ()
