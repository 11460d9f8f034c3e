(** Deterministic, seeded fault injection.

    A fault plan decides — as a pure function of [(seed, site, index)] —
    whether a given execution point fails, stalls, or exhausts the ambient
    budget. Because decisions are hashes rather than draws from shared
    mutable PRNG state, the same plan injects the same faults regardless
    of scheduling, domain count, or retry interleaving; the fault suite
    ([test_robust.ml]) relies on this to assert byte-identical surviving
    results.

    Injection points are wired into the two places failures matter:
    {!Partitioner.Counted.probe} (site ["cost"], index = call number) and
    the [Vp_parallel.Pool] task boundary (site ["pool:<label>"], index =
    submission position). Everything is a no-op when the plan is
    {!disabled} — the production default. *)

exception Injected of string
(** The injected failure; the payload names the site and index, e.g.
    ["pool:fig3#12"]. *)

type action =
  | Pass
  | Raise_exn  (** raise {!Injected} at the point *)
  | Delay of float  (** sleep this many seconds, then continue *)
  | Exhaust_budget
      (** mark the ambient {!Budget.current} exhausted (no-op when it is
          {!Budget.unlimited}); the surrounding search degrades to
          best-so-far at its next tick *)

type t

val disabled : t
(** Injects nothing, everywhere. *)

val create :
  ?exn_rate:float ->
  ?delay_rate:float ->
  ?exhaust_rate:float ->
  ?delay_seconds:float ->
  seed:int ->
  unit ->
  t
(** A plan injecting each fault class at the given rate (all default 0;
    [delay_seconds] defaults to 1ms).
    @raise Invalid_argument if any rate is outside [0, 1] or the rates sum
    to more than 1. *)

val enabled : t -> bool
(** [true] iff any rate is positive. *)

val decide : t -> site:string -> index:int -> action
(** The (pure) decision for one execution point. *)

val apply : t -> site:string -> index:int -> unit
(** Executes {!decide}: raises {!Injected}, sleeps, exhausts the ambient
    budget, or does nothing. *)

val from_env : unit -> t
(** {!disabled} unless [VP_FAULT_SEED] is set to an integer; then a plan
    with that seed and rates from [VP_FAULT_EXN_RATE],
    [VP_FAULT_DELAY_RATE], [VP_FAULT_EXHAUST_RATE] (each defaulting to
    0.05) and [VP_FAULT_DELAY_SECONDS] (default 0.001). *)

(** {2 Ambient plan}

    Mirrors {!Budget.current}: the per-domain fault plan consulted by the
    instrumented sites. [Vp_parallel.Pool] re-installs the submitter's
    ambient plan inside worker domains. *)

val current : unit -> t

val with_current : t -> (unit -> 'a) -> 'a
