open Vp_core

(** Selection-aware extension of the I/O cost model (the paper's Section 7
    remark).

    The base model ignores selection predicates: every referenced partition
    is scanned in full. When a query has a selective predicate, a smarter
    plan exists: scan only the partitions holding the {e selection}
    attributes, and fetch the matching tuples from the remaining referenced
    partitions with one random I/O (seek + one block) per match. This model
    prices both plans and takes the cheaper one per partition, which is
    what makes isolating selection attributes in their own partition
    potentially attractive.

    The paper's observation — "this affects the data layouts only when the
    selectivity is higher than 10^-4 for uniformly distributed datasets,
    such as TPC-H" (i.e. fewer than ~1 in 10^4 rows match) — falls out of
    the crossover between [matches * (seek + block read)] and the full
    sequential scan; the [selectivity] experiment regenerates it. *)

type selection = {
  attributes : Attr_set.t;
      (** Attributes evaluated by the predicate; must be a subset of the
          query's references. *)
  selectivity : float;  (** Fraction of rows matching, in [[0, 1]]. *)
}

val query_cost :
  Disk.t -> Table.t -> Partitioning.t -> Query.t -> selection -> float
(** Cost of the query under selection pushdown: partitions containing
    selection attributes are scanned in full (shared buffer, as in the base
    model); every other referenced partition costs
    [min(full scan, matches * (seek + one block read))].
    @raise Invalid_argument if the selection attributes are not a subset of
    the query's references or the selectivity is outside [[0, 1]]. *)

val workload_cost :
  Disk.t -> Workload.t -> (Query.t -> selection option) -> Partitioning.t -> float
(** Weighted workload cost where each query may carry a selection;
    queries mapped to [None] are priced by the base model. *)

val oracle :
  Disk.t -> Workload.t -> (Query.t -> selection option) -> Partitioner.cost_fn

val request :
  Disk.t -> Workload.t -> (Query.t -> selection option) -> Partitioner.Request.t
(** [request disk w selection_of] pairs {!oracle} with the reference
    session {!Partitioner.Delta.full}, as {!Memory_model.request} does. *)

val crossover_selectivity : Disk.t -> rows:int -> row_size:int -> float
(** The selectivity at which per-match random fetches of a partition with
    the given row size cost exactly as much as scanning it:
    [scan_cost / (rows * (seek + block transfer))]. Below this fraction the
    fetch plan wins. *)
