(** The one instrumentation switch.

    Every hot-path probe in the system — cost-oracle counters, cache
    hit/miss accounting, pool task counters, budget step counters, trace
    spans — guards itself on this module, and the disabled path is a
    single [Atomic.get] plus a branch. No ambient state, no allocation,
    no lock: an untraced run pays one predictable load per instrumented
    site and is byte-identical to a run of the uninstrumented code (see
    DESIGN.md section 9, "zero overhead when disabled").

    Levels are cumulative: [Trace] implies [Stats].

    The initial level comes from the environment, read once at program
    start: [VP_TRACE=1] enables [Trace], otherwise [VP_STATS=1] enables
    [Stats], otherwise the switch starts [Off]. [--trace] / [--stats]
    flags on the CLI raise it at runtime. *)

type level = Off | Stats | Trace

val set : level -> unit
(** Sets the global instrumentation level (visible to all domains). *)

val current : unit -> level

val stats_on : unit -> bool
(** [true] at level [Stats] or [Trace]. The counter-site guard. *)

val trace_on : unit -> bool
(** [true] at level [Trace] only. The span-site guard. *)

val raise_to : level -> unit
(** Like {!set} but never lowers the level — so [--stats] does not
    silently downgrade a [VP_TRACE=1] environment. *)

val with_level : level -> (unit -> 'a) -> 'a
(** Runs [f] at exactly the given level, restoring the previous level
    afterwards (also on exceptions). Intended for tests. *)
