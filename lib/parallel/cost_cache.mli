(** The per-run search memo.

    A hill-climb re-costs almost the whole candidate neighbourhood each
    iteration, and merge searches revisit layouts they have already
    priced. A {!memo} remembers the cost of every candidate one search
    run has priced, keyed on the partitioning itself: no fingerprint
    string to build and no lock, because one run only ever prices one
    (workload, disk) instance on one domain.

    Memoization never changes a result: a hit returns exactly the float
    the oracle returned on the miss, so a search takes the same
    trajectory with or without a memo. The memo is the only cost cache
    above the oracle; below it, [Vp_cost.Io_model.Incremental] sessions
    keep per-query costs for delta probes. *)

type memo
(** Candidate costs keyed on the partitioning. One search run owns it,
    on one domain; it is not domain-safe and is never shared between
    runs. *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val counted :
  memo ->
  Vp_core.Partitioner.Counted.oracle ->
  Vp_core.Partitioning.t ->
  float
(** Memoizes the counted oracles algorithm bodies use: a miss evaluates
    through {!Vp_core.Partitioner.Counted.cost} (counting a cost call),
    a hit only notes a candidate. Hits and misses move the process-wide
    [cache.hits] / [cache.misses] counters (when
    {!Vp_observe.Switch.stats_on}), so the counter deltas around a run
    are exactly its memo hits and misses. *)

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
