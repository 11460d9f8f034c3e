(** The common interface every vertical partitioning algorithm implements,
    plus instrumentation shared by all of them.

    Algorithms receive a {!Request.t} — the workload, a cost oracle, an
    optional budget and an optional instrumentation label — and return a
    {!Response.t}: a {!Partitioning.t} with run statistics, a degradation
    status and provenance. The cost oracle abstracts the cost model (disk
    I/O or main-memory), so the same algorithm code runs under every
    model — the paper's "unified setting" — and the oracle a caller
    constructs is where the disk profile is chosen. *)

type cost_fn = Partitioning.t -> float
(** Estimated workload cost of a candidate partitioning. Lower is better.
    Must be deterministic for the duration of a run. *)

type stats = {
  cost_calls : int;  (** Number of cost-oracle invocations. *)
  candidates : int;  (** Candidate partitionings considered. *)
  iterations : int;  (** Algorithm-specific outer iterations. *)
  elapsed_seconds : float;  (** Wall-clock optimization time. *)
}

type status =
  | Complete  (** The algorithm ran to its natural termination. *)
  | Timed_out of { steps : int; elapsed_seconds : float }
      (** The run's budget was exhausted first. The partitioning is still
          valid — it is the best candidate found before exhaustion (see
          DESIGN.md "Degradation contract"); [steps] and
          [elapsed_seconds] describe the budget at exhaustion. *)

(** Incremental cost-delta sessions (DESIGN.md section 12). A session is
    based at one partitioning and answers "what would the full workload
    cost be after this one move?" by re-pricing only the queries whose
    touched-partition set changes. Implemented by
    [Vp_cost.Io_model.Incremental]; the type lives here so algorithm
    neighbor loops can consume it without a dependency on [lib/cost].

    Every cost a session returns is bit-identical to a full re-cost of
    the moved-to partitioning: per-query costs are cached, only affected
    queries are recomputed, and the workload total is re-summed over all
    queries in the oracle's order — so float non-associativity never
    shows through, and search trajectories (hence layouts) match the
    full-cost path exactly. *)
module Delta : sig
  type session = {
    base_cost : unit -> float;
        (** Cost of the current base partitioning. *)
    goto : Partitioning.t -> float;
        (** Rebase the session at an arbitrary partitioning and return
            its cost. Queries whose referenced-group set is unchanged
            from the previous base are not re-costed. *)
    cost_merge : Attr_set.t -> Attr_set.t -> float;
        (** Cost after merging two (distinct) base groups: [cost_move g1
            g1 g2]. The base is unchanged. Raises [Invalid_argument]
            exactly where {!Partitioning.merge_groups} would. *)
    cost_move : Attr_set.t -> Attr_set.t -> Attr_set.t -> float;
        (** [cost_move sub src dst] is the cost after moving [sub], a
            non-empty subset of base group [src], into base group [dst];
            [sub = src] is the merge of [src] and [dst]. The base is
            unchanged: only the queries touching [src] or [dst] are
            re-priced, each with one fold over its base groups. Raises
            [Invalid_argument] exactly where {!Partitioning.split_group}
            or {!Partitioning.merge_groups} would building that
            partitioning. *)
  }

  type factory = unit -> session
  (** Sessions are single-threaded scratch state; a factory lets each
      worker domain (or each algorithm run) build its own. *)
end

(** What a partitioner is asked to do: one record instead of the
    optional-argument soup that accreted on [run] across releases. Build
    one with {!Request.make}; unspecified fields keep today's ambient
    behaviour (ambient budget, no label, full re-costing). *)
module Request : sig
  type t = {
    workload : Workload.t;
    cost : cost_fn;  (** The cost oracle (encodes the disk profile). *)
    budget : Vp_robust.Budget.t option;
        (** [None] means the ambient {!Vp_robust.Budget.current}. *)
    label : string option;
        (** Instrumentation tag, echoed into the response provenance and
            (on traced runs) the algorithm span's args. *)
    delta : Delta.factory option;
        (** Optional incremental-oracle factory. Must price exactly the
            same cost model as [cost]; algorithms built with
            {!timed_run_delta} use it for neighbor probes when present;
            without one they re-cost every probe in full through
            [cost]. *)
    cancel : bool Atomic.t option;
        (** Optional shared cancellation signal. It is attached to the
            effective budget ({!Vp_robust.Budget.with_cancel}), so it is
            checked at exactly the sites that already
            {!Vp_robust.Budget.tick} — cancellation is cooperative and
            deterministic in effect: a cancelled run stops at a tick and
            returns its valid best-so-far layout tagged {!Timed_out}. *)
  }

  val make :
    ?budget:Vp_robust.Budget.t ->
    ?cancel:bool Atomic.t ->
    ?label:string ->
    ?delta:Delta.factory ->
    cost:cost_fn ->
    Workload.t ->
    t

  val workload : t -> Workload.t

  val delta : t -> Delta.factory option
  (** The request's delta factory, if any. *)

  val cancel : t -> bool Atomic.t option

  val effective_budget : t -> Vp_robust.Budget.t
  (** The explicit budget if any, else the ambient one — with the
      request's [cancel] signal (if any) attached. *)
end

(** What a partitioner answers: the layout plus everything needed to audit
    where it came from. *)
module Response : sig
  type entrant = {
    entrant : string;  (** {!t.name} of the racing entrant. *)
    entrant_short : string;
    entrant_cost : float;
        (** Cost of the entrant's (possibly best-so-far) layout. *)
    entrant_status : status;
        (** {!Timed_out} for entrants the race cancelled. *)
    entrant_stats : stats;
    winner : bool;  (** Exactly one entrant of a portfolio run wins. *)
  }
  (** One line of a portfolio race audit: what each entrant returned
      before the meta-partitioner picked the winner. *)

  type provenance = {
    algorithm : string;  (** {!t.name} of the algorithm that ran. *)
    short_name : string;
    label : string option;  (** The request's label, echoed back. *)
    entrants : entrant list;
        (** Per-entrant audit of a portfolio race, in registration
            order; [[]] for ordinary single-algorithm runs. *)
  }

  type t = private {
    partitioning : Partitioning.t;
    cost : float;  (** Cost of [partitioning] under the request's oracle. *)
    stats : stats;
    status : status;
    provenance : provenance;
  }
  (** Private: read fields freely, but construct only through {!make},
      so no call site can leave the provenance half-initialized. *)

  val make :
    partitioning:Partitioning.t ->
    cost:float ->
    stats:stats ->
    status:status ->
    algorithm:string ->
    short_name:string ->
    ?label:string ->
    ?entrants:entrant list ->
    unit ->
    t
  (** The single smart constructor for responses. [entrants] defaults to
      [[]]; [label] to [None]. *)
end

type t = { name : string; short_name : string; exec : Request.t -> Response.t }
(** A named algorithm. [exec] must return a valid partitioning of the
    request workload's table, budgeted or not. *)

val exec : t -> Request.t -> Response.t
(** [exec t request] is [t.exec request] — the one entry point every call
    site (bin, bench, experiments, tests) goes through. The
    optional-argument [run] shim that predated {!Request.t} is gone;
    budgets and labels travel in the request. *)

(** A counting wrapper around a cost oracle, used by algorithm
    implementations to fill in {!stats} without threading counters
    manually. Each evaluation is also a fault-injection site
    ([site:"cost"]) under the ambient {!Vp_robust.Fault.current} plan. *)
module Counted : sig
  type oracle

  val make : cost_fn -> oracle

  val cost : oracle -> Partitioning.t -> float
  (** Evaluates and counts one cost call. *)

  val probe : oracle -> (unit -> float) -> float
  (** [probe o thunk] accounts one cost evaluation — same fault site,
      same call/candidate counters, same order as {!cost} — but obtains
      the number from [thunk] (an incremental {!Delta.session} probe)
      instead of the wrapped full oracle. Using [probe] for delta
      evaluations keeps budgets, statistics and fault-injection indices
      byte-identical between the delta and full-cost paths. *)

  val note_candidate : oracle -> unit
  (** Records a candidate that was considered without a (new) cost call. *)

  val calls : oracle -> int

  val candidates : oracle -> int
end

(** The per-run search memo: the cost of every candidate one search run
    has priced, keyed on the partitioning, for searches that revisit
    layouts. A hit returns exactly the float the oracle returned on the
    miss, so a search takes the same trajectory with or without a memo.
    It is the only cost cache above the oracle; below it,
    [Vp_cost.Io_model.Incremental] sessions keep per-query costs. *)
module Memo : sig
  type t
  (** One search run owns it, on one domain; not domain-safe. *)

  val create : unit -> t
  (** A fresh, empty memo. *)

  val counted : t -> Counted.oracle -> Partitioning.t -> float
  (** Memoizes a counted oracle: a miss evaluates through
      {!Counted.cost} (counting a cost call), a hit only notes a
      candidate. Hits and misses move the process-wide [cache.hits] /
      [cache.misses] counters (when {!Vp_observe.Switch.stats_on}), so
      the counter deltas around a run are exactly its memo hits and
      misses. *)

  val counted_via :
    t -> Counted.oracle -> compute:(unit -> float) -> Partitioning.t -> float
  (** Like {!counted}, but a miss obtains the number from [compute] — an
      incremental {!Delta.session} probe — through {!Counted.probe},
      instead of re-pricing the partitioning with the wrapped full
      oracle. [compute] must return exactly what the full oracle would
      (the delta oracle's contract), so memo contents, hit/miss
      sequences and counters stay byte-identical between the delta and
      full paths. *)
end

val timed_run :
  name:string ->
  short_name:string ->
  (Workload.t -> Counted.oracle -> Partitioning.t * int) ->
  t
(** Builds a {!t} from an implementation body that returns the chosen
    partitioning and its iteration count; timing, final-cost evaluation and
    statistics are handled here. The body ignores budgets; the result is
    still tagged {!Timed_out} if the effective budget was exhausted (e.g.
    by fault injection) while it ran. *)

val timed_run_budgeted :
  name:string ->
  short_name:string ->
  (budget:Vp_robust.Budget.t ->
  Workload.t ->
  Counted.oracle ->
  Partitioning.t * int) ->
  t
(** Like {!timed_run}, but the body receives the effective budget (the
    request's budget, else the ambient one) and is expected to
    {!Vp_robust.Budget.tick} as it searches, returning its best-so-far
    partitioning when the budget runs out. *)

val timed_run_delta :
  name:string ->
  short_name:string ->
  (budget:Vp_robust.Budget.t ->
  delta:Delta.session option ->
  Workload.t ->
  Counted.oracle ->
  Partitioning.t * int) ->
  t
(** Like {!timed_run_budgeted}, but the body additionally receives a
    fresh delta session built from the request's factory — [None] when
    the request has no factory, in which case the body must fall back to
    full re-costing through the counted oracle. Delta probes must go
    through {!Counted.probe} so the two paths stay observationally
    identical. *)
