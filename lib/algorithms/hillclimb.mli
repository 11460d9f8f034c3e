(** HillClimb (Hankins & Patel, "Data Morphing", VLDB 2003), as adapted by
    the paper: a bottom-up algorithm that starts from column layout and in
    each iteration merges the two partitions whose union yields the best
    improvement in expected workload cost, stopping when no merge improves.

    The paper notes that the original algorithm precomputes a dictionary of
    all column-group costs, which grows to gigabytes for wide tables, and
    that dropping the dictionary dramatically improves the runtime. The
    default {!algorithm} is that improved version: it keeps no candidate
    memo at all. A merge-only climb never proposes the same layout twice —
    every candidate of an iteration has one group fewer than the last
    iteration's — so a candidate memo would miss on every lookup; the
    work successive iterations do repeat is per-query, and an
    incremental session on the request reuses it. {!with_dictionary}
    keeps the memoizing variant for ablation A1. *)

val algorithm : Vp_core.Partitioner.t
(** HillClimb without a candidate memo (the default). *)

val with_dictionary : Vp_core.Partitioner.t
(** Original HillClimb: memoises candidate partitioning costs in a
    dictionary keyed by the partitioning; a miss is priced through the
    request's session. Finds the same layouts; kept as an independent
    implementation to cross-check {!algorithm}. *)
