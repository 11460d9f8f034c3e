open Vp_core

(** A vertically partitioned table instance inside the storage simulator:
    one {!Pfile.t} per partition, an executor that runs scan/projection
    queries with tuple reconstruction, and full I/O + CPU accounting.

    The executor mirrors the paper's query processing assumptions: all
    partitions referenced by a query are scanned concurrently through one
    shared I/O buffer, split among them in proportion to their (average)
    row sizes; every sub-buffer refill pays a seek. Tuple-by-tuple
    reconstruction is simulated in the accounting (refills and join CPU
    row rank by row rank); the retained path builds no rows, but digests
    each refilled window's projected values straight from the block
    bytes. *)

type t

val build :
  ?device:Device.t ->
  ?retain:bool ->
  disk:Vp_cost.Disk.t ->
  codec:Codec.kind ->
  ?formats:Codec.kind list ->
  Table.t ->
  Vp_stream.Source.t ->
  Partitioning.t ->
  t
(** Streams the source into one partition file per group (one training
    pass when a group is dictionary-coded, then one encode pass feeding
    every file — bounded by the chunk size, never the table), accounting
    the writes on [device] (a fresh device if omitted — retrieve it with
    {!device}; the build's own delta is {!load_stats} either way).

    [retain] (default [true]) keeps the encoded blocks so queries decode
    real values; [retain:false] builds virtual (accounting-only) files —
    the out-of-core mode: fixed-stride groups then need no data pass at
    all, and {!run_query} replays the exact refill schedule against the
    device without decoding (identical {!query_result.io}, checksum 0).

    [formats] assigns a per-group codec kind (one per group, in
    {!Vp_core.Partitioning.groups} order), overriding [codec] — the
    {!Format} selector's decision applied to storage.
    @raise Invalid_argument on a source/table mismatch or a [formats]
    list whose length disagrees with the partitioning. *)

val table : t -> Table.t

val partitioning : t -> Partitioning.t

val pfiles : t -> Pfile.t list

val load_stats : t -> Device.stats
(** I/O performed while building. *)

val device : t -> Device.t
(** The device the build accounted on (the fresh one if the caller did
    not supply one — write accounting is never silently lost). *)

val bytes_on_disk : t -> int

type query_result = {
  rows_out : int;  (** Tuples produced (= table row count; no selection). *)
  io : Device.stats;  (** I/O of this query alone. *)
  cpu_seconds : float;  (** Simulated decode + reconstruction CPU time. *)
  partitions_read : int;
  values_decoded : int;
  checksum : int;  (** Order-independent digest of the projected values. *)
}

val run_query : t -> Query.t -> query_result
(** Executes one scan/projection query against a private device (so [io]
    reflects this query only). When any referenced file is virtual the
    executor replays the exact refill request sequence of the
    materialized scan without decoding: [io] is bit-identical to the
    materialized run (property-tested), [values_decoded] equal,
    [cpu_seconds] the same sum accumulated in a different float order,
    and [checksum] 0. *)

val run_workload : t -> Workload.t -> query_result list * float
(** All queries (each on a fresh device, like the paper's cold-cache runs);
    returns per-query results and the total simulated wall time
    (I/O + CPU), query weights applied. Ticks the ambient
    {!Vp_robust.Budget} once per query and silently drops the remaining
    queries when it exhausts, so budgeted runs return a (partial) result
    instead of raising. *)

val join_ns_per_tuple : float
(** CPU cost charged per reconstructed tuple per extra partition. *)
