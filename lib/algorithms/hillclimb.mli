(** HillClimb (Hankins & Patel, "Data Morphing", VLDB 2003), as adapted by
    the paper: a bottom-up algorithm that starts from column layout and in
    each iteration merges the two partitions whose union yields the best
    improvement in expected workload cost, stopping when no merge improves.

    The paper notes that the original algorithm precomputes a dictionary of
    all column-group costs, which grows to gigabytes for wide tables, and
    that dropping the dictionary dramatically improves the runtime. The
    default {!algorithm} keeps the spirit of the improved version but
    memoizes candidate costs in a per-run {!Vp_parallel.Cost_cache.memo}
    (a repeated candidate counts as a candidate, not a cost call) without
    the gigabyte-scale precomputation of the original. A merge-only climb
    never proposes the same layout twice — every candidate of an
    iteration has one group fewer than the last iteration's — so that
    memo misses on every lookup; the work successive iterations do
    repeat is per-query, and the request's delta session reuses it.
    {!without_cache} evaluates every candidate afresh, for the ablation
    benchmark. *)

val algorithm : Vp_core.Partitioner.t
(** HillClimb with per-run cost memoization (the default). *)

val without_cache : Vp_core.Partitioner.t
(** HillClimb evaluating every candidate through the cost model, even
    repeated ones — the uncached baseline of ablation A1. *)

val with_dictionary : Vp_core.Partitioner.t
(** Original HillClimb: memoises candidate partitioning costs in a
    dictionary keyed by the partitioning. Finds the same layouts; kept as
    an independent implementation to cross-check {!algorithm}'s cache. *)
