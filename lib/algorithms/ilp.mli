open Vp_core

(** ILP: the exact search expressed as Amossen's integer-programming
    formulation of vertical partitioning (PAPERS.md, arXiv:0911.1691),
    solved by the branch-and-bound driver BruteForce runs
    ({!Brute_force.branch_and_bound}), with its own atom and child
    order.

    Binary variables x[a,b] assign each primary-partition atom to one
    block; the restricted-growth convention removes the ILP's symmetric
    block permutations; and the search branches on atoms in descending
    objective mass (total weight of the queries referencing the atom),
    visiting candidate blocks cheapest-relaxation-first. Partial
    assignments are fathomed against an admissible lower bound of the
    objective — the relaxation the ILP solver would use — supplied by
    the cost model ({!Vp_cost.Bounds}) and carried by difference: a
    child's bound is an exact integer update of its parent's per-query
    seek and byte counts.

    Like BruteForce, the search is exact: with an admissible bound it
    returns a minimum-cost layout, and under a budget it degrades to a
    monotone best-so-far incumbent (never worse than Row). *)

val make :
  ?use_atoms:bool ->
  ?max_candidates:int ->
  ?lower_bound:(Workload.t -> Brute_force.lower_bound) ->
  unit ->
  Partitioner.t
(** Same contract as {!Brute_force.make}: [use_atoms] (default [true])
    searches primary partitions; [max_candidates] (default 5,000,000)
    bounds the space accepted without a bound or budget.
    @raise Invalid_argument (at run time) when the space exceeds the
    bound and neither a lower bound nor a budget was provided. *)

val with_bound : Vp_cost.Disk.t -> Partitioner.t
(** [make] wired with the I/O cost model's admissible relaxation bound
    ({!Vp_cost.Bounds.io_brute_force}) for the given disk — the variant
    harnesses race when the oracle is the disk I/O model. Only sound
    when the request's oracle prices that same model. *)

val algorithm : Partitioner.t
(** [make ()]: no relaxation bound (sound under any cost oracle), so
    exact-but-unpruned; sufficient for every TPC-H/SSB table except
    Lineitem/Lineorder, and safe anywhere a budget is present. *)
