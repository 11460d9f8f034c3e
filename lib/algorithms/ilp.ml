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
   budget ticks, delta re-costing, the bound carried by difference — is
   the one driver, {!Brute_force.branch_and_bound}, that BruteForce runs
   too, so the two exact searches differ only in atom and child order. *)

let objective_weight workload =
  let queries = Workload.queries workload in
  fun atom ->
    Array.fold_left
      (fun acc q ->
        if Attr_set.intersects (Query.references q) atom then
          acc +. Query.weight q
        else acc)
      0.0 queries

(* Atoms by descending objective mass, bulkier atom then mask order as
   tie-breaks. *)
let heaviest_first workload atoms =
  let table = Workload.table workload in
  let weights = Array.map (objective_weight workload) atoms in
  let order = Array.init (Array.length atoms) Fun.id in
  Array.sort
    (fun i j ->
      match compare weights.(j) weights.(i) with
      | 0 -> (
          match
            compare
              (Table.subset_size table atoms.(j))
              (Table.subset_size table atoms.(i))
          with
          | 0 -> Attr_set.compare atoms.(i) atoms.(j)
          | c -> c)
      | c -> c)
    order;
  Array.map (fun i -> atoms.(i)) order

let make =
  Brute_force.branch_and_bound ~name:"ILP" ~short_name:"IP"
    ~order_atoms:heaviest_first ~cheapest_first:true

let with_bound disk = make ~lower_bound:(Vp_cost.Bounds.io_brute_force disk) ()

let algorithm = make ()
