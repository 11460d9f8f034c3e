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
  delta:Partitioner.Delta.session ->
  ?budget:Vp_robust.Budget.t ->
  n:int ->
  Partitioner.Counted.oracle ->
  Attr_set.t list ->
  merge option
(** [best_pair_merge ~delta ~n oracle groups] evaluates every pair of
    groups and returns the cheapest resulting partitioning, or [None]
    when fewer than two groups (or no allowed pair) remain. [allowed]
    filters candidate pairs (HYRISE uses it to restrict merging within a
    subgraph). Ties go to the earliest pair in canonical group order.
    Every allowed pair is one cost call: a merge-only climb never meets
    a candidate twice (each iteration has one group fewer), so no search
    keeps a candidate memo.

    The scan first rebases [delta] at the scanned partitioning, which
    prices nothing, then prices each pair with
    [Delta.session.cost_merge] through {!Partitioner.Counted.probe}. The
    merged partitioning of the winning pair is built once here; an
    incremental session builds none for the others, the reference
    session ({!Partitioner.Delta.full}) one per pair.

    Each allowed pair ticks [budget] (default
    {!Vp_robust.Budget.unlimited}) before evaluation, so exhaustion
    raises {!Vp_robust.Budget.Exhausted} mid-scan. *)

val climb :
  ?allowed:(Attr_set.t -> Attr_set.t -> bool) ->
  delta:Partitioner.Delta.session ->
  ?budget:Vp_robust.Budget.t ->
  n:int ->
  Partitioner.Counted.oracle ->
  Attr_set.t list ->
  Partitioning.t * int
(** Greedy merging to a local optimum: repeatedly apply the best pairwise
    merge while it strictly improves the cost. The start is priced with
    {!Partitioner.Counted.evaluate}. Returns the final partitioning and
    the number of merge iterations performed.

    When [budget] exhausts, returns the best partitioning committed so far
    (at worst the starting one) instead of raising: a merge found by a
    partial neighbourhood scan is discarded rather than committed, so the
    returned cost is non-increasing in the budget. *)
