open Vp_core

(** BruteForce: the exact search over all possible vertical partitionings
    (the paper's optimality baseline).

    The number of set partitions of n attributes is the Bell number B(n) —
    4,140 for the 8-attribute Customer table but already beyond 10^10 for
    the 16-attribute Lineitem table — so a literal enumeration is
    impractical for wide tables (the paper's core motivation). This module
    therefore implements the exact search as a depth-first
    branch-and-bound over restricted growth strings:

    - the search runs over the workload's {e primary partitions} (groups of
      attributes always accessed together) instead of raw attributes, which
      is lossless for this cost model's optimum and shrinks Lineitem from
      16 attributes to 13 units;
    - a greedy bottom-up merge seeds the incumbent (upper bound);
    - an optional {e admissible lower bound} supplied by the cost model
      prunes partial assignments that can no longer beat the incumbent.

    Without a lower bound the search degenerates to full enumeration and
    refuses workloads whose search space exceeds [max_candidates]. *)

type lower_bound = Attr_set.t array -> Vp_cost.Bounds.search
(** A bound applied to the atoms in branching order. Each child bound
    must under-estimate the workload cost of every partitioning that
    extends the child's partial assignment; see {!Vp_cost.Bounds}. *)

val branch_and_bound :
  name:string ->
  short_name:string ->
  order_atoms:(Workload.t -> Attr_set.t array -> Attr_set.t array) ->
  cheapest_first:bool ->
  ?use_atoms:bool ->
  ?max_candidates:int ->
  ?lower_bound:(Workload.t -> lower_bound) ->
  unit ->
  Partitioner.t
(** The one exact-search driver BruteForce and {!Ilp} share: the row
    incumbent, the seed climb, the space guard, the restricted-growth
    enumeration, and pruning against the bound. A leaf is priced from
    the enumeration's blocks by the request's session
    ([Delta.session.cost_blocks]) and built here only when it beats the
    incumbent.
    [order_atoms] fixes the branching order of the atoms. With a bound,
    the children of a node are visited in block-index order, or
    cheapest bound first (ties by block index) when [cheapest_first]; a
    run without a bound visits them in index order and does no bound
    work. *)

val make :
  ?use_atoms:bool ->
  ?max_candidates:int ->
  ?lower_bound:(Workload.t -> lower_bound) ->
  unit ->
  Partitioner.t
(** [use_atoms] (default [true]) searches over primary partitions rather
    than single attributes. [max_candidates] (default 5,000,000) bounds the
    search-space size accepted {e without} a lower bound; with a lower
    bound there is no limit.
    @raise Invalid_argument (at run time) when the space exceeds the bound
    and no lower bound was provided. *)

val algorithm : Partitioner.t
(** [make ()]: primary-partition search, no lower bound — sufficient for
    every TPC-H and SSB table except Lineitem/Lineorder; the benchmark
    harness wires {!make} with the I/O-model lower bound for those. *)
