(** A fixed-size pool of worker domains draining a shared task queue.

    The pool exists to fan independent, pure tasks (experiment runs,
    per-table algorithm line-ups, candidate evaluations) across OCaml 5
    domains while keeping results {e deterministic}: {!run} and {!map}
    always return results in submission order, whatever order the workers
    finish in. With [jobs = 1] no domain is ever spawned and tasks execute
    strictly sequentially in the calling domain, so a single-job pool is
    observationally identical to a plain [List.map].

    Tasks must not themselves call {!run} or {!map} on the same pool
    (the pool is not re-entrant). Every task in a batch runs to completion
    (or failure) regardless of other tasks' failures; {!run} then
    re-raises the exception of the earliest failed task in submission
    order, while {!run_results} hands every outcome back to the caller.

    Tasks run under the {e submitter's} ambient {!Vp_robust.Budget} and
    {!Vp_robust.Fault} plan: both are captured when the batch is submitted
    and re-installed inside whichever domain executes each task, so a
    deadline set before fan-out follows the work. *)

type t
(** A pool of worker domains. *)

type error = {
  label : string;  (** The task's label ([""] for {!run}/{!map} tasks). *)
  exn : exn;
  backtrace : string;
}
(** Why a task failed, as captured in its executing domain. *)

val default_jobs : unit -> int
(** Number of jobs used when none is given: the [VP_JOBS] environment
    variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns worker domains ([jobs] is clamped to at least 1);
    the calling domain also executes tasks during {!run}, so up to [jobs]
    tasks run concurrently. [jobs] is an upper bound: the pool never runs
    more domains than [Domain.recommended_domain_count ()], because
    oversubscribing cores makes every stop-the-world minor collection a
    round of context switches in OCaml 5. Results are deterministic
    regardless of the clamp. (Connections, which block rather than
    compute, get their domains from [Vp_server.Conn_server], not from a
    pool.) *)

val jobs : t -> int
(** The concurrency the pool was created with (always >= 1). *)

val effective_jobs : jobs:int -> int
(** The number of domains (workers + helping caller) a pool created with
    [~jobs] actually uses: [min jobs (Domain.recommended_domain_count ())],
    at least 1. *)

val domain_count : t -> int
(** Worker domains plus the helping caller for this pool (= [effective_jobs
    ~jobs:(jobs t)]). *)

val run : t -> (unit -> 'a) list -> 'a list
(** Executes every thunk and returns their results in submission order.
    If any task failed, re-raises the earliest failure (after the whole
    batch has finished). *)

val run_results : t -> (string * (unit -> 'a)) list -> ('a, error) result list
(** Like {!run} over labelled tasks, but total: one [result] per task, in
    submission order, [Error] carrying the label, exception and backtrace
    of the failed task instead of re-raising. One task failing never
    prevents another from running — this is the fault boundary the
    experiment sweep builds on. Each labelled task is also a
    fault-injection site ([site:"pool:<label>"], index = submission
    position) under the submitter's ambient {!Vp_robust.Fault} plan. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [run pool (List.map (fun x () -> f x) xs)]. *)

val shutdown : t -> unit
(** Joins all worker domains. The pool must not be used afterwards.
    Idempotent. Every worker is joined even if some worker domain died
    with an exception; the first such exception is re-raised only after
    all joins complete, so no domain is ever leaked. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** Creates a pool, runs the function, and shuts the pool down even on
    exceptions. *)

val inject_raw : t -> (unit -> unit) -> unit
(** Test hook: enqueue a closure that runs {e unprotected} in a worker
    domain, so an exception it raises kills that worker — used by the
    suite to prove {!shutdown}/{!with_pool} survive dying domains. The
    helping caller runs raw tasks protected; only workers can die. Not
    for production use. *)

val run_list : ?jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot convenience: [with_pool] + {!run}. [jobs] defaults to
    {!default_jobs}. *)
