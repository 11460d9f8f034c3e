open Vp_core

(** Shared bottom-up search step: among all pairwise merges of the current
    groups, find the one with the lowest cost. Used by HillClimb, AutoPart
    and HYRISE. *)

type merge = {
  merged : Partitioning.t;  (** Partitioning after the merge. *)
  merged_cost : float;
  group_a : Attr_set.t;  (** The two groups that were merged. *)
  group_b : Attr_set.t;
}

val best_pair_merge :
  ?allowed:(Attr_set.t -> Attr_set.t -> bool) ->
  ?cache:Partitioner.Memo.t ->
  ?delta:Partitioner.Delta.session ->
  ?budget:Vp_robust.Budget.t ->
  n:int ->
  Partitioner.Counted.oracle ->
  Attr_set.t list ->
  merge option
(** [best_pair_merge ~n oracle groups] evaluates every pair of groups and
    returns the cheapest resulting partitioning, or [None] when fewer than
    two groups remain. [allowed] filters candidate pairs (HYRISE uses it to
    restrict merging within a subgraph). Ties go to the earliest pair in
    canonical group order.

    A candidate is [Partitioning.merge_groups] of the scanned
    partitioning, built in O(k) — but only when something reads it: the
    full oracle, the memo key, or a candidate that becomes the
    incumbent. When [cache] is given, candidate costs are memoized
    through it, keyed on the candidate partitioning (hits are counted as
    candidates, not cost calls). A merge-only climb never meets a
    candidate twice (each iteration has one group fewer), so only
    searches that revisit layouts — HYRISE's second phase, the
    enumerations seeded by a climb — gain from one.

    When [delta] is given, the scan first rebases the session at the
    scanned partitioning, then prices each pair with
    [Delta.session.cost_merge] instead of a full re-cost — through
    {!Partitioner.Counted.probe}, or {!Partitioner.Memo.counted_via}
    when [cache] is also given, which looks the candidate up in the memo
    first and runs the probe only on a miss. Ticks, counters, fault
    indices and memo traffic are therefore byte-identical to the full
    path, and so are the costs (the delta oracle's contract).

    Each allowed pair ticks [budget] (default
    {!Vp_robust.Budget.unlimited}) before evaluation, so exhaustion
    raises {!Vp_robust.Budget.Exhausted} mid-scan. *)

val climb :
  ?allowed:(Attr_set.t -> Attr_set.t -> bool) ->
  ?cache:Partitioner.Memo.t ->
  ?delta:Partitioner.Delta.session ->
  ?budget:Vp_robust.Budget.t ->
  n:int ->
  Partitioner.Counted.oracle ->
  Attr_set.t list ->
  Partitioning.t * int
(** Greedy merging to a local optimum: repeatedly apply the best pairwise
    merge while it strictly improves the cost. Returns the final
    partitioning and the number of merge iterations performed. [cache] as
    in {!best_pair_merge}.

    When [budget] exhausts, returns the best partitioning committed so far
    (at worst the starting one) instead of raising: a merge found by a
    partial neighbourhood scan is discarded rather than committed, so the
    returned cost is non-increasing in the budget. *)
