open Vp_core

(** Replicated vertical partitioning — the setting the study deliberately
    stripped from the unified comparison (Section 4, "Common Replication")
    and this library restores as an extension.

    With [r] data replicas (Trojan's HDFS setting has r = 3 by default),
    the workload is split into [r] query groups of similar access patterns
    ({!Query_grouping}); each group gets its own replica laid out by any
    base algorithm, and each query is routed to its group's replica. More
    replicas monotonically reduce the workload cost (down to the
    perfect-materialized-views bound as r approaches the query count) at a
    linear price in storage and layout-creation time. *)

type t = private {
  groups : (int list * Partitioning.t) list;
      (** Query indices (into the workload) with their replica's layout. *)
}

val build :
  replicas:int ->
  algorithm:Partitioner.t ->
  request:(Workload.t -> Partitioner.Request.t) ->
  Workload.t ->
  t
(** Groups the queries, then runs [algorithm] once per group on the
    request [request] builds for the sub-workload of that group's
    queries (a cost model's [request]).
    @raise Invalid_argument if [replicas <= 0]. *)

val workload_cost :
  request:(Workload.t -> Partitioner.Request.t) -> Workload.t -> t -> float
(** Total weighted cost with every query executed against its own group's
    replica, each group priced by the cost of [request]'s request for
    it. *)

val storage_factor : Workload.t -> t -> float
(** Bytes stored across all replicas relative to a single copy of the
    table (= the number of replicas, since each replica holds the whole
    table). *)

val replica_count : t -> int

val layouts : t -> Partitioning.t list
