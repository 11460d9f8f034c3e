(** Memoized cost evaluation.

    Every partitioning algorithm and most experiments evaluate the same
    I/O cost formula over and over: a hill-climb re-costs almost the whole
    candidate neighbourhood each iteration, and the HillClimb-class
    algorithms explore heavily overlapping candidate sets on the same
    (table, workload, disk) instance. A [Cost_cache.t] memoizes
    {!Vp_cost.Io_model} workload costs keyed on the {e workload
    fingerprint} (disk profile + table schema + query footprints and
    weights) and the candidate partitioning, with hit/miss counters.

    Caching never changes a result: a cached entry is exactly the float the
    cost model returned, so searches take identical trajectories with the
    cache on or off — only faster. All operations on [t] are domain-safe.

    A search run memoizes its own candidates in a {!memo} instead: keyed
    on the partitioning itself, with no fingerprint string to build and
    no lock, because one run only ever prices one instance on one
    domain.

    A process-wide kill switch ({!set_caching_enabled}) turns every cache
    into a transparent pass-through; the benchmark harness uses it to time
    uncached baselines. *)

type t

val create : unit -> t
(** A fresh, empty, enabled cache. *)

val global : t
(** The process-wide cache shared by the experiment layer and the CLI. *)

val set_caching_enabled : bool -> unit
(** Process-wide kill switch (default [true]). When off, every cache is a
    pass-through and counters stop moving. *)

val caching_enabled : unit -> bool

type stats = { hits : int; misses : int; entries : int }

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)], or 0 when there were no lookups. *)

val clear : t -> unit
(** Drops all entries and resets the counters. *)

val context_fingerprint : Vp_cost.Disk.t -> Vp_core.Table.t -> string
(** A digest of the disk profile and table schema — everything a
    {e per-query} cost depends on besides the partitions the query reads.
    Keys built from it stay valid across workloads over the same table. *)

val fingerprint : Vp_cost.Disk.t -> Vp_core.Workload.t -> string
(** A digest of everything the I/O cost of a partitioning depends on: the
    disk profile, the table schema (names, widths, row count) and every
    query's reference set and weight. Two workloads with equal fingerprints
    have equal costs for every partitioning. *)

val memoize :
  t -> fingerprint:string -> Vp_core.Partitioner.cost_fn ->
  Vp_core.Partitioner.cost_fn
(** [memoize cache ~fingerprint f] returns [f] memoized under
    [(fingerprint, partitioning)] keys. *)

type memo
(** A per-run search memo: candidate costs keyed on the partitioning
    itself. One search run owns it, on one domain; it is not
    domain-safe and is never shared between runs. *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val counted :
  memo ->
  Vp_core.Partitioner.Counted.oracle ->
  Vp_core.Partitioning.t ->
  float
(** Memoizes the counted oracles algorithm bodies use: a miss evaluates
    through {!Vp_core.Partitioner.Counted.cost} (counting a cost call),
    a hit only notes a candidate — so [stats.candidates -
    stats.cost_calls] of a run is its memo-hit count. Hits and misses
    move the process-wide [cache.hits] / [cache.misses] counters; the
    kill switch turns the memo into a pass-through. *)

val counted_via :
  memo ->
  Vp_core.Partitioner.Counted.oracle ->
  compute:(unit -> float) ->
  Vp_core.Partitioning.t ->
  float
(** Like {!counted}, but a miss obtains the number from [compute] — an
    incremental {!Vp_core.Partitioner.Delta.session} probe — through
    {!Vp_core.Partitioner.Counted.probe}, instead of re-pricing [p] with
    the wrapped full oracle. [compute] must return exactly what the full
    oracle would for [p] (the delta oracle's contract), so memo
    contents, hit/miss sequences and counters stay byte-identical
    between the delta and full paths. *)

val oracle : ?cache:t -> Vp_cost.Disk.t -> Vp_core.Workload.t ->
  Vp_core.Partitioner.cost_fn
(** A memoized {!Vp_cost.Io_model.oracle}: the workload fingerprint is
    computed once, then every candidate evaluation goes through [cache]
    (default {!global}) keyed on the whole partitioning. *)

val query_oracle : ?cache:t -> Vp_cost.Disk.t -> Vp_core.Workload.t ->
  Vp_core.Partitioner.cost_fn
(** Like {!oracle} but memoized {e per query}: one entry per (disk + table,
    query footprint, referenced partitions). A query's cost only depends on
    the partitions it reads, so entries are shared between candidate
    partitionings that differ elsewhere, and between workloads that repeat
    a query — which is where search loops actually repeat work. Returns
    bit-identical results to {!Vp_cost.Io_model.workload_cost} (same
    accumulation order). One cache lookup per query per evaluation. *)
