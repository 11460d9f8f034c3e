(** Process-wide metrics: counters, gauges and histograms.

    The design is write-local, merge-on-read. A metric is interned once
    by name in a global registry; each domain that touches it gets its
    own [Atomic] cell, created lazily and registered under the metric.
    Increments are a single uncontended [Atomic.fetch_and_add] on the
    domain's private cell — no lock, no cross-domain cache-line traffic —
    and {!snapshot} merges the cells by summing them, so counts recorded
    inside pool worker domains are always visible from the main domain.
    Cells outlive their domain: a worker that exits leaves its counts in
    the registry, and hands its cells to the next domain to start, so a
    metric holds at most one cell per domain alive at once (plus the
    tables of exited domains not yet taken over), however many domains
    a process spawns over its life.

    Merging is a sum of non-negative per-domain subtotals, so it is
    associative and commutative: any grouping of the same increments over
    any set of domains yields the same snapshot (property-tested in
    [test_observe.ml]).

    Recording is unconditional at this layer; instrumented call sites
    guard themselves with [Switch.stats_on] so that disabled runs pay a
    single branch. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Interns (or returns) the counter named [name].
    @raise Invalid_argument if the name is already a gauge/histogram. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Adds [n] (may be any non-negative int) to this domain's cell.
    @raise Invalid_argument on negative [n]. *)

val gauge : string -> gauge
(** Gauges record a last-set value in a single shared cell (they are not
    hot-path metrics; use counters for anything incremented per event). *)

val set_gauge : gauge -> int -> unit

val histogram : string -> histogram
(** Histograms bucket observations into base-2 exponent buckets — bucket 0
    holds non-positive values, bucket [b] covers [[2^(b-33), 2^(b-32))) —
    and track per-domain count and sum. *)

val observe : histogram -> float -> unit

(** {2 Snapshots} *)

type summary = { count : int; sum : float; buckets : int array }

type snapshot = {
  counters : (string * int) list;      (** sorted by name *)
  gauges : (string * int) list;        (** sorted by name *)
  histograms : (string * summary) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Merges every metric's per-domain cells. Safe to call from any domain
    at any time; concurrent increments land in this or a later
    snapshot. *)

val counter_value : snapshot -> string -> int
(** The merged value of a counter in a snapshot; 0 if absent. *)

val cell_count : string -> int
(** The number of per-domain cells registered under the named metric; 0
    if no such metric is interned. *)

val quantile : summary -> float -> float
(** [quantile s q] for [q] in [[0, 1]]: the representative value of the
    bucket holding the observation of rank [ceil (q * count)]. Monotone
    in [q]; [0.] on an empty summary.
    @raise Invalid_argument if [q] is outside [[0, 1]]. *)

val reset : unit -> unit
(** Zeroes every cell of every metric (the metrics stay interned). For
    tests. *)

val render : snapshot -> string
(** A plain-text table of the snapshot: counters and gauges one per line,
    histograms with count/mean/p50/p90/p99. Empty string when the
    snapshot holds no data at all. *)
