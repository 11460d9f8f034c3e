open Vp_core

(** Admissible lower bounds for BruteForce's branch-and-bound search
    ({!Vp_algorithms.Brute_force} consumes these through a plain function
    type, keeping the libraries decoupled).

    During the search, blocks only ever gain attributes. For a fixed query
    this means: (i) every block already intersecting the query's footprint
    stays referenced, so at least one seek per such block is unavoidable;
    (ii) all needed bytes will be scanned no matter where the remaining
    attributes land; and (iii) unneeded attributes already co-located with
    needed ones will be scanned too. Summing (i)-(iii) under-estimates the
    true cost of every completion, which is exactly what branch-and-bound
    requires.

    Apply a bound to the workload once ([io_brute_force disk w]) and call
    the result per node: each query's references, weight and needed bytes
    are computed at application, so a call is one allocation-free pass
    per query over the blocks. *)

val io_brute_force :
  Disk.t -> Workload.t -> blocks:Attr_set.t list -> remaining:Attr_set.t -> float
(** Lower bound matching {!Io_model.workload_cost}. *)

val memory_brute_force :
  Memory_model.t ->
  Workload.t ->
  blocks:Attr_set.t list ->
  remaining:Attr_set.t ->
  float
(** Lower bound matching {!Memory_model.workload_cost} (no seek term). *)
