open Vp_core

(** Hypergraph partitioner (PAPERS.md, arXiv:1309.1556): queries are
    hyperedges over the primary-partition atoms, a layout is a vertex
    partition, and the connectivity metric
    [cut(P) = sum_q w_q * (lambda_q - 1)] counts the extra seeks a
    layout charges. Heavy-edge coarsening (merge the pair of blocks with
    the heaviest connecting hyperedge weight) alternates with FM-style
    boundary refinement (move one atom across the cut); the hypergraph
    metric orders the candidates, the request's cost oracle scores them,
    and only true cost improvements are committed — so the result never
    costs more than the atom layout it starts from, under any budget.

    With a delta session on the request, the session stays based at
    the incumbent: a merge is priced with the session's [cost_merge],
    a move of an atom with its [cost_move], and only a commit rebases
    it ([goto]).
    Without one, every candidate is re-costed in full. Either way
    candidates go through the per-run {!Partitioner.Memo}, and the
    layout, cost bits and search counters are the same. *)

val connectivity_cut : Workload.t -> Partitioning.t -> float
(** The hypergraph connectivity of a layout:
    [sum_q weight q * (blocks touched by q - 1)]. Zero exactly when no
    query spans two blocks (e.g. the row layout). Monotone under group
    merges: merging two groups never increases it. *)

val make : unit -> Partitioner.t

val algorithm : Partitioner.t
(** Registered as ["Hypergraph"] (short name ["HG"]). Budgeted via the
    standard tick-per-candidate contract with monotone best-so-far
    degradation. *)
