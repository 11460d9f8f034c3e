open Vp_core

(** Shared wiring for the experiment modules: the paper's default setting
    (TPC-H at scale factor 10 on the measured testbed profile), the
    algorithm line-up with BruteForce wired to the branch-and-bound lower
    bound, and a cache of the expensive "run everything on every table"
    sweep that most experiments start from. *)

val sf : float
(** 10.0 — the paper's scale factor. *)

val disk : Vp_cost.Disk.t
(** The paper's testbed profile ({!Vp_cost.Disk.default}). *)

val brute_force : Vp_cost.Disk.t -> Partitioner.t
(** BruteForce with the I/O-model lower bound for the given profile. *)

val memory_brute_force : Partitioner.t
(** BruteForce with the lower bound of the default main-memory model. *)

val algorithms : Vp_cost.Disk.t -> Partitioner.t list
(** AutoPart, HillClimb, HYRISE, Navathe, O2P, Trojan, BruteForce — the
    paper's Figure 3 order. *)

val algorithms_with_baselines : Vp_cost.Disk.t -> Partitioner.t list
(** The above plus Row and Column. *)

type table_run = {
  workload : Workload.t;
  result : Partitioner.Response.t;
}

type algo_run = {
  algo : Partitioner.t;
  per_table : table_run list;  (** One entry per TPC-H table. *)
  total_cost : float;  (** Sum of workload costs across tables. *)
  optimization_time : float;  (** Sum of per-table optimization times. *)
}

val tpch_runs : unit -> algo_run list
(** Every algorithm (including baselines) on every TPC-H table under the
    default setting. Computed once and cached; safe to call from several
    domains at once. *)

val reset_caches : unit -> unit
(** Drops the memoized TPC-H sweep, so the next computation starts cold
    (benchmark harness only). *)

val run_algorithm :
  (Workload.t -> Partitioner.Request.t) -> Workload.t list -> Partitioner.t ->
  algo_run
(** [run_algorithm request_of workloads algo] runs [algo] on
    [request_of w] (a cost model's [request]) for each workload. *)

val run_algorithms_on :
  Vp_cost.Disk.t -> Workload.t list -> Partitioner.t list -> algo_run list
(** The same sweep on arbitrary workloads/profile (used by the
    re-optimization experiments). *)

val find_run : string -> algo_run
(** Look up a cached TPC-H run by algorithm name.
    @raise Not_found on unknown names. *)

val entries_of : algo_run -> Vp_metrics.Measures.Aggregate.per_table list

val heading : string -> string
(** Section heading used by the experiment and CLI output. *)
