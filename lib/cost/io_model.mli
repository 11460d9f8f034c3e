open Vp_core

(** The paper's disk I/O cost model (Section 4, "Common System").

    A query reads every vertical partition containing at least one referenced
    attribute. All referenced partitions are read concurrently into the
    shared I/O buffer, which is divided among them in proportion to their
    row sizes. Each buffer refill of a partition costs one seek; scanning
    costs bytes / bandwidth:

    - [buff_i   = floor(Buff * s_i / S)]
    - [blocksbuff_i = floor(buff_i / b)]  (clamped to at least 1)
    - [blocks_i = ceil(N / floor(b / s_i))]
    - [cost_seek_i = ts * ceil(blocks_i / blocksbuff_i)]
    - [cost_scan_i = blocks_i * b / BW]
    - [cost_Q  = sum over referenced partitions (seek + scan)]

    where [s_i] is the row size of partition i, [S] the total row size of
    all partitions referenced by the query, [N] the table row count, [b] the
    block size, [Buff] the buffer size, [ts] the seek time and [BW] the read
    bandwidth.

    Two guards generalise the formulas beyond the paper's parameter ranges:
    a partition whose rows are wider than a block stores
    [ceil(N * s_i / b)] blocks, and a partition allotted less than one
    block of buffer still progresses one block per refill. *)

type query_breakdown = {
  seek_cost : float;  (** Seconds spent seeking. *)
  scan_cost : float;  (** Seconds spent scanning. *)
  seeks : int;  (** Number of buffer refills across partitions. *)
  blocks_read : int;  (** Total blocks fetched. *)
  bytes_read : float;  (** Payload bytes of all referenced partitions. *)
  bytes_needed : float;  (** Payload bytes of just the referenced attributes. *)
  partitions_read : int;  (** Number of referenced partitions. *)
}
(** Per-query accounting used by the paper's quality metrics (Figures 4-6). *)

val partition_blocks : Disk.t -> rows:int -> row_size:int -> int
(** Number of disk blocks a partition occupies. *)

val query_breakdown :
  Disk.t -> Table.t -> Partitioning.t -> Query.t -> query_breakdown
(** Full accounting for one (unweighted) execution of the query. *)

val query_cost_groups : Disk.t -> Table.t -> Attr_set.t list -> float
(** [seek_cost + scan_cost] of reading exactly the given partitions. The
    cost of a query is fully determined by the set of partitions it
    touches; this is the unit {!Incremental} sessions re-cost and
    memoize. It runs the same fold as {!query_cost_sized}. *)

val query_cost_sized : Disk.t -> rows:int -> int list -> float
(** [seek_cost + scan_cost] of concurrently reading one partition per
    listed row size — {!query_cost_groups} with the stored widths given
    explicitly instead of derived from the schema. The entry point for
    per-partition format selection ({!Vp_storage.Format}), where a
    partition's width depends on its codec. Coincides bit for bit with
    {!query_cost_groups} when each size equals the group's
    {!Vp_core.Table.subset_size}. *)

val query_cost : Disk.t -> Table.t -> Partitioning.t -> Query.t -> float
(** [seek_cost + scan_cost] for one execution: {!query_cost_groups} of the
    partitions containing at least one referenced attribute. *)

val workload_cost : Disk.t -> Workload.t -> Partitioning.t -> float
(** Weighted sum of query costs over the workload. *)

val oracle : Disk.t -> Workload.t -> Partitioner.cost_fn
(** Cost oracle closure for feeding algorithms. *)

(** Incremental cost-delta oracle for the optimizer hot path (DESIGN.md
    section 12). A session is based at one partitioning and prices a
    neighbor — moving part of one partition into another, the merge of
    two partitions being the whole-partition case — by re-pricing only
    the queries whose referenced-partition set changes (found via a flat
    per-attribute query index built once per session) and re-summing the
    weighted total over all queries in {!workload_cost}'s exact fold
    order. Every cost returned is therefore bit-identical to
    [workload_cost disk w p'] of the moved-to partitioning: search
    trajectories, and hence layouts, match the reference session's byte for
    byte. A session keeps each query's referenced groups under the base.
    A move folds each affected query's cost straight from those groups
    and a per-base table of group sizes, building neither the moved-to
    partitioning nor its group arrays (counted by [cost.merge_folds],
    one add per move, not by [cost.query_costs]); a rebase ({!goto})
    memoizes query costs on the group arrays; an exact search's
    enumeration leaf ({!cost_blocks}) is priced from its blocks with
    neither. Sessions are
    single-threaded; build one per domain via {!Incremental.factory}.
    {!request} pairs the factory with {!oracle}. *)
module Incremental : sig
  type t
  (** A mutable delta session: base partitioning + cached per-query
      costs + fold scratch. *)

  val create : Disk.t -> Workload.t -> t
  (** A session with no meaningful base yet: the first {!goto} (or any
      costing call) prices its partitioning in full. *)

  val base : t -> Partitioning.t
  (** The partitioning the session is currently based at. *)

  val base_cost : t -> float
  (** Full workload cost of {!base}, bit-identical to
      {!workload_cost}. *)

  val goto : t -> Partitioning.t -> float
  (** Rebase at an arbitrary partitioning and return its cost. Only
      queries touching attributes whose group changed are re-costed;
      a [goto] to the current base recomputes nothing. *)

  val cost_move : t -> Attr_set.t -> Attr_set.t -> Attr_set.t -> float
  (** [cost_move t sub src dst] is the cost after moving [sub], a
      non-empty subset of base group [src], into base group [dst],
      without rebasing; [sub = src] merges the two groups. Only queries
      touching [src] or [dst] are re-priced. Raises [Invalid_argument]
      exactly where {!Partitioning.split_group} or
      {!Partitioning.merge_groups} would building the moved-to
      partitioning. *)

  val cost_merge : t -> Attr_set.t -> Attr_set.t -> float
  (** [cost_merge t g1 g2] is [cost_move t g1 g1 g2]: the cost after
      merging two distinct base groups. Raises [Invalid_argument]
      exactly where {!Partitioning.merge_groups} would (e.g.
      self-merge). *)

  val cost_blocks : t -> Attr_set.t array -> int -> float
  (** [cost_blocks t blocks used] is the cost of the partitioning whose
      groups are [blocks.(0)] .. [blocks.(used - 1)], in any order — an
      exact search's enumeration leaf — without building it and without
      rebasing. Every query is priced from the blocks it reads: each
      block's size, blocks and scan seconds are resolved once per call,
      a query's blocks are visited in canonical order with
      {!query_cost_sized}'s terms, and the weighted total runs in
      workload order, so the float is {!workload_cost}'s. Counts one
      [cost.delta_evals] and one [cost.query_costs] per query. Raises
      [Invalid_argument] where {!Partitioning.of_groups} would. *)

  val session : t -> Partitioner.Delta.session
  (** The algorithm-facing view of a session. *)

  val factory : Disk.t -> Workload.t -> Partitioner.Delta.factory
  (** [factory disk w] makes fresh sessions pricing [disk] and [w]; each
      run of a {!request} builds its own, in the domain that runs it. *)
end

val request :
  ?budget:Vp_robust.Budget.t ->
  ?label:string ->
  Disk.t ->
  Workload.t ->
  Partitioner.Request.t
(** [request disk w] prices [w] under this model: {!oracle} for the
    final cost, {!Incremental.factory} for every search's session. Every
    I/O-model optimization is built here, so all run the incremental
    path. *)

val pmv_cost : Disk.t -> Workload.t -> float
(** Cost of the perfect-materialized-views layout: each query reads one
    dedicated partition containing exactly its referenced attributes, with
    the whole buffer to itself. *)

val creation_time : Disk.t -> Table.t -> Partitioning.t -> float
(** Estimated time to transform the table from row layout into the given
    partitioning: sequentially read the row-layout table once and write
    every partition file, with one seek per buffer refill on each stream
    (read stream + one write stream per partition, sharing the buffer
    proportionally). *)
