(** The common interface every vertical partitioning algorithm implements,
    plus instrumentation shared by all of them.

    Algorithms receive a {!Request.t} — the workload, a cost oracle and
    the pricing sessions of the same model, an optional budget and label
    — and return a {!Response.t}: a {!Partitioning.t} with run
    statistics, a degradation status and provenance. The request
    abstracts the cost model, so the same algorithm code runs under
    every model — the paper's "unified setting" — and each model builds
    its own requests ([Vp_cost.Io_model.request], ...), so the model
    decides which session prices a search. *)

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

(** Pricing sessions (DESIGN.md section 12): the one way a search prices
    a candidate. A session is based at one partitioning and answers
    "what would the full workload cost be after this one move?". Two
    implementations exist: [Vp_cost.Io_model.Incremental], which
    re-prices only the queries whose touched-partition set changes, and
    the reference session {!full}, which builds the candidate and calls
    the plain cost oracle. The type lives here so algorithm neighbor
    loops can consume it without a dependency on [lib/cost].

    Every cost a session returns is bit-identical to the cost oracle on
    the moved-to partitioning: an incremental session caches per-query
    costs, recomputes only affected queries and re-sums the workload
    total over all queries in the oracle's order — so float
    non-associativity never shows through, and search trajectories
    (hence layouts) do not depend on which session a request carries. *)
module Delta : sig
  type session = {
    base_cost : unit -> float;
        (** Cost of the current base partitioning. *)
    goto : Partitioning.t -> unit;
        (** Rebase the session at an arbitrary partitioning, pricing
            nothing a caller sees. An incremental session re-costs only
            the queries whose referenced-group set changed; the
            reference session only records the base. *)
    cost_merge : Attr_set.t -> Attr_set.t -> float;
        (** Cost after merging two (distinct) base groups: [cost_move g1
            g1 g2]. The base is unchanged. Raises [Invalid_argument]
            exactly where {!Partitioning.merge_groups} would. *)
    cost_move : Attr_set.t -> Attr_set.t -> Attr_set.t -> float;
        (** [cost_move sub src dst] is the cost after moving [sub], a
            non-empty subset of base group [src], into base group [dst];
            [sub = src] is the merge of [src] and [dst]. The base is
            unchanged. Raises [Invalid_argument] exactly where
            {!Partitioning.split_group} or {!Partitioning.merge_groups}
            would building that partitioning. *)
    cost_blocks : Attr_set.t array -> int -> float;
        (** [cost_blocks blocks used] is the cost of the partitioning
            whose groups are [blocks.(0)] .. [blocks.(used - 1)], given in
            any order — an exact search's enumeration leaf. The base is
            unchanged. Raises [Invalid_argument] where
            {!Partitioning.of_groups} would. *)
  }

  type factory = unit -> session
  (** Sessions are single-threaded scratch state; a factory lets each
      worker domain (or each algorithm run) build its own. *)

  val full : n:int -> cost_fn -> factory
  (** [full ~n cost] is the reference session over [n] attributes, based
      at the row layout until its first [goto]: [base_cost],
      [cost_merge], [cost_move] and [cost_blocks] each build the
      candidate ({!Partitioning.merge_groups},
      {!Partitioning.split_group}, {!Partitioning.of_groups}) and call
      [cost] on it exactly once; [goto] calls it never. It is the
      session of the memory and selection models' requests, and the
      answer every incremental session is tested against. *)
end

(** What a partitioner is asked to do: one record instead of the
    optional-argument soup that accreted on [run] across releases. A
    cost model builds it with {!make}; unspecified optional fields keep
    the ambient behaviour (ambient budget, no label, no cancellation).
    There is no default session. *)
module Request : sig
  type t = {
    workload : Workload.t;
    cost : cost_fn;  (** The cost oracle (encodes the disk profile). *)
    budget : Vp_robust.Budget.t option;
        (** [None] means the ambient {!Vp_robust.Budget.current}. *)
    label : string option;
        (** Instrumentation tag, echoed into the response provenance and
            (on traced runs) the algorithm span's args. *)
    delta : Delta.factory;
        (** The sessions every search of the run prices through. Must
            price exactly the same cost model as [cost]. *)
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
    delta:Delta.factory ->
    cost:cost_fn ->
    Workload.t ->
    t
  (** [delta] and [cost] must price the same model. Outside [lib/cost]
      and the tests, requests come from a cost model's [request]
      function, which pairs the two; a copy with another budget is made
      with the record [with] syntax. *)

  val workload : t -> Workload.t

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

(** The counters behind {!stats}, so algorithm implementations need not
    thread them by hand. Every cost evaluation of a search goes through
    {!probe} and is also a fault-injection site ([site:"cost"]) under
    the ambient {!Vp_robust.Fault.current} plan. The numbers come from
    the run's {!Delta.session}; there is no other pricing primitive. *)
module Counted : sig
  type oracle

  val make : unit -> oracle

  val probe : oracle -> (unit -> float) -> float
  (** [probe o thunk] accounts one cost evaluation — fault site, then
      the call and candidate counters — and obtains the number from
      [thunk] (a {!Delta.session} answer), so budgets, statistics and
      fault-injection indices are byte-identical whichever session
      answers. *)

  val evaluate : delta:Delta.session -> oracle -> Partitioning.t -> float
  (** [evaluate ~delta o p] prices a built partitioning: one {!probe} of
      the session's [goto p] then [base_cost], which leaves the session
      based at [p]. The one way a search prices a candidate it has
      built (Navathe, Trojan, HillClimb+dict, a climb's start, an exact
      search's incumbent). *)

  val note_candidate : oracle -> unit
  (** Records a candidate that was considered without a (new) cost call. *)

  val calls : oracle -> int

  val candidates : oracle -> int
end

val timed_run :
  name:string ->
  short_name:string ->
  (budget:Vp_robust.Budget.t ->
  delta:Delta.session ->
  Workload.t ->
  Counted.oracle ->
  Partitioning.t * int) ->
  t
(** Builds a {!t} from an implementation body that returns the chosen
    partitioning and its iteration count; timing, final-cost evaluation
    and statistics are handled here. The body receives the effective
    budget (the request's budget, else the ambient one), which it is
    expected to {!Vp_robust.Budget.tick} as it searches, returning its
    best-so-far partitioning when the budget runs out; a body that
    ignores it is still tagged {!Timed_out} if the budget was exhausted
    (e.g. by fault injection) while it ran. It also receives a fresh
    session from the request's factory; every session probe goes
    through {!Counted.probe}, so statistics, budgets and fault indices
    do not depend on which session the request carries. *)
