open Vp_core

(** The online layout service: a long-lived process state that ingests a
    query stream one query at a time and evolves the table's vertical
    layout as the workload drifts.

    The service keeps the stream in a buffer that doubles when full
    (O(1) per ingest), and watches a
    decision window for {e drift}: the estimated cost of the queries in
    the window under the current layout, divided by a cheap per-query
    lower bound (the perfect-materialized-view cost of reading exactly
    the referenced attributes, {!Vp_cost.Io_model.query_cost_groups}).
    When that ratio exceeds [drift_ratio] — or, as a backstop, every
    [epoch] queries — the service re-optimizes: the configured algorithm
    panel runs over the [memory] most recent queries, fanned across a
    {!Vp_parallel.Pool} with a fresh deterministic step
    {!Vp_robust.Budget} per member, and the cheapest candidate is
    compared against the incumbent with the paper's pay-off metric
    (Appendix A.1). The candidate is {e adopted} only when the estimated
    migration cost ({!Vp_cost.Io_model.creation_time}) is recouped
    within [horizon] executions of the ingested workload; otherwise it
    is rejected and the incumbent stays.

    Every decision is recorded as an {!event} carrying full provenance
    (triggering query index, trigger kind, winning algorithm, estimated
    cost before/after, pay-off factor, verdict), and adopted layouts
    advance a monotonic {!generation} counter. {!history} renders the
    decision log as stable text: replaying the same stream with the same
    configuration yields a byte-identical history, for every [jobs]
    value and whether or not tracing is on — all decision inputs are
    model-estimated, never wall-clock (verified in [test_online.ml]).

    Instrumentation (under {!Vp_observe.Switch}): counters
    [online.ingested], [online.reopts], [online.adopted],
    [online.rejected]; one [online.reopt] span per re-optimization. *)

type config = {
  disk : Vp_cost.Disk.t;  (** Cost model for estimates and migrations. *)
  panel : Partitioner.t list;
      (** Algorithms raced at each re-optimization; the cheapest
          candidate wins, ties broken by panel order. *)
  drift_ratio : float;
      (** Re-optimize when windowed cost / windowed lower bound exceeds
          this (e.g. [1.5] = paying 50% over the per-query ideal). *)
  min_window : int;
      (** Length of the {e sliding} drift window: the ratio is computed
          over the last [min_window] queries only, so old quiet traffic
          cannot dilute fresh drift. The window is cleared after every
          decision, which both debounces rejected candidates and makes
          the trigger wait for [min_window] fresh queries. *)
  epoch : int;
      (** Re-optimize at the latest every [epoch] queries since the last
          decision; [0] disables the epoch trigger. *)
  memory : int;
      (** How many of the most recent queries the re-optimizer considers
          ([0] = the full history). Bounded memory is what lets the
          service track drift: over the full history the pre-drift
          queries dominate forever and every post-drift candidate looks
          marginal. The full-history {!workload} stays available
          regardless. *)
  horizon : float;
      (** Adopt a candidate only if its pay-off factor — migration cost
          over per-execution improvement of the re-optimization
          workload — is at most this many executions. *)
  budget_steps : int option;
      (** Step budget per panel member and re-optimization ([None] =
          the ambient budget). Steps, not seconds: deterministic. *)
  jobs : int;  (** Pool width for the panel fan-out. *)
  formats : bool;
      (** Opt-in per-partition format re-picking: after every layout
          verdict the service re-chooses each partition's storage format
          ({!Vp_storage.Format}) from deterministic schema statistics
          and adopts the new vector under the same pay-off gate,
          charging fragment rewrites as migration. Off by default — the
          decision log and history bytes are then exactly the
          pre-formats ones. *)
}

val default_config :
  ?drift_ratio:float ->
  ?min_window:int ->
  ?epoch:int ->
  ?memory:int ->
  ?horizon:float ->
  ?budget_steps:int ->
  ?jobs:int ->
  ?formats:bool ->
  disk:Vp_cost.Disk.t ->
  panel:Partitioner.t list ->
  unit ->
  config
(** Defaults: [drift_ratio = 2.], [min_window = 8], [epoch = 64],
    [memory = 32], [horizon = 1.] (a migration must pay off within one
    execution of the recent workload), [budget_steps = None],
    [jobs = 1], [formats = false].
    @raise Invalid_argument if [panel] is empty, [drift_ratio <= 0],
    [min_window < 1], [epoch < 0], [memory < 0], [horizon <= 0],
    [budget_steps < 0] or [jobs < 1]. *)

type trigger =
  | Drift of float  (** The window ratio that crossed [drift_ratio]. *)
  | Epoch  (** [epoch] queries elapsed since the last decision. *)

type verdict = Adopted | Rejected

type event = {
  generation : int;
      (** The generation this decision produced (adoptions) or left in
          place (rejections). *)
  trigger_query : int;  (** 0-based stream index of the triggering query. *)
  trigger : trigger;
  algorithm : string;  (** Winning panel member ({!Partitioner.t} name). *)
  cost_before : float;
      (** Estimated cost of one execution of the re-optimization
          workload (the [memory] most recent queries) under the
          incumbent layout, at the decision point. *)
  cost_after : float;  (** Same, under the winning candidate. *)
  migration : float;  (** Estimated layout-creation (migration) time. *)
  payoff : float;
      (** [migration / (cost_before - cost_after)] — the paper's pay-off
          factor with zero optimization time (wall-clock is excluded so
          replays are deterministic). Negative when the candidate is
          worse, [infinity] when it is no better. *)
  verdict : verdict;
}

type format_event = {
  f_generation : int;  (** Layout generation the re-pick happened under. *)
  f_trigger_query : int;  (** Same stream index as the layout event's. *)
  f_formats : string;  (** Proposed vector, {!Vp_storage.Format.to_string}. *)
  f_cost_before : float;
      (** {!Vp_storage.Format.scan_cost} of the re-optimization workload
          under the incumbent formats. *)
  f_cost_after : float;  (** Same, under the proposed vector. *)
  f_migration : float;
      (** {!Vp_storage.Format.migration_cost}: rewriting exactly the
          fragments whose format changes. *)
  f_payoff : float;  (** [migration / (before - after)]. *)
  f_verdict : verdict;
}
(** One format re-pick decision (recorded only when the chosen vector
    differs from the incumbent). *)

type t

val create : config -> Table.t -> t
(** A fresh service for one table, at generation 0 with the row layout
    (the table's native, unpartitioned state — migrating away from it is
    the first investment the pay-off rule must justify). *)

val ingest : t -> Query.t -> unit
(** Accounts one query: adds its estimated cost under the current layout
    to the cumulative total, appends it to the stream, and runs the drift/epoch check — possibly triggering
    a re-optimization and a layout change before returning.
    @raise Invalid_argument if the query references attributes outside
    the service's table. *)

val config : t -> config

val table : t -> Table.t

val layout : t -> Partitioning.t
(** The current (incumbent) layout. *)

val generation : t -> int
(** Monotonic; 0 until the first adoption. *)

val ingested : t -> int
(** Queries ingested so far. *)

val workload : t -> Workload.t
(** The ingested stream as a workload (built on each call). *)

val events : t -> event list
(** Every decision so far, oldest first. *)

val formats : t -> Vp_storage.Format.t
(** Per-partition formats of the current layout (all-[Plain] unless
    [config.formats] adopted a re-pick); feed its
    {!Vp_storage.Format.kinds} to {!Vp_storage.Database.build}. *)

val format_events : t -> format_event list
(** Format re-pick decisions, oldest first (empty with [formats] off). *)

val format_adoptions : t -> int

val reopts : t -> int
(** Re-optimizations triggered ([= List.length (events t)]). *)

val adoptions : t -> int

val cumulative_query_cost : t -> float
(** Sum over ingested queries of weight x estimated cost under the
    layout that was current {e when the query arrived}. *)

val cumulative_migration_cost : t -> float
(** Sum of the migration estimates of adopted generations. *)

val cumulative_cost : t -> float
(** [cumulative_query_cost + cumulative_migration_cost] — the number the
    static baselines are compared against in {!Replay}. *)

val event_line : event -> string
(** One decision as a stable, wall-clock-free line, e.g.
    [gen=1 at=57 drift=2.1341 algo=HillClimb before=123.456789
    after=98.765432 migration=4.321000 payoff=0.175000 verdict=adopted]. *)

val format_event_line : format_event -> string
(** One format decision as a stable line ([gen=… at=… format=… …]). *)

val history : t -> string
(** All decisions, one {!event_line} per line (newline-terminated;
    [""] when there are none), each format re-pick line directly after
    the layout line of the same re-optimization. The determinism tests
    compare this byte-for-byte across replays. *)

(** {2 Snapshot / restore}

    The durability layer's primitives: {!snapshot} captures every piece
    of mutable state — schema, ingested queries, layout, generation,
    drift-window ring, pay-off accounting, decision events — as a JSON
    document in which {e every float travels as its IEEE-754 bit
    pattern}, and {!restore} rebuilds a service whose subsequent
    behaviour is bit-identical to the original's: restoring a snapshot
    taken after query [k] and then ingesting queries [k+1 .. n] yields
    the same {!history} bytes and {!generation} as ingesting all [n]
    into one long-lived service (proved in [test_durability.ml]). The
    workload is rebuilt by re-adding the stored queries in ingest order.

    Both directions come from one {!Vp_observe.Json.Codec} description
    per shape ({!query}, {!event}, {!format_event} and the snapshot
    itself); [test/fixtures/v1/] holds snapshots written before these
    descriptions existed, and they still restore. *)

val snapshot : t -> string
(** The service's full mutable state as one JSON line. *)

val restore : config -> string -> (t, string) result
(** Rebuild a service from {!snapshot} output under the given config
    (the config — panel, disk, trigger parameters — is not serialized;
    the caller persists whatever it needs to rebuild it, e.g.
    [Vp_server.Sessions] keeps the open spec). Fails with
    [corrupt snapshot: <reason>] on a malformed document, naming the
    field path where the shape is wrong, and on a config whose
    [min_window] disagrees with the snapshot's ring. *)

val query : Query.t Vp_observe.Json.Codec.t
(** One query with a bit-exact weight:
    [{"name", "refs": [positions], "w": bits}] — the query records of
    snapshots and of the per-session write-ahead log. Decoding does not
    know the table; {!ingest} and {!restore} refuse positions outside
    it. *)

val query_to_json : Query.t -> Vp_observe.Json.t
(** [Codec.encode query]. *)

val event : event Vp_observe.Json.Codec.t

val format_event : format_event Vp_observe.Json.Codec.t
