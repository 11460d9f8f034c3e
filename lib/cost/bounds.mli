open Vp_core

(** Admissible lower bounds for the branch-and-bound searches
    ({!Vp_algorithms.Brute_force} and {!Vp_algorithms.Ilp}).

    During the search, blocks only ever gain attributes. For a fixed query
    this means: (i) every block already intersecting the query's footprint
    stays referenced, so at least one seek per such block is unavoidable;
    (ii) all needed bytes will be scanned no matter where the remaining
    attributes land; and (iii) unneeded attributes already co-located with
    needed ones will be scanned too. Summing (i)-(iii) under-estimates the
    true cost of every completion, which is exactly what branch-and-bound
    requires.

    The bound is carried by difference. Apply it to a workload and then
    to the search's atoms in branching order ([io_brute_force disk w
    atoms]); that allocates every row it keeps: per (block, query)
    whether the block meets the query and its bytes outside it, and per
    (depth, query) the seek count and co-located bytes. A child's bound
    is then one pass of exact integer updates over the queries followed
    by the per-query float formula in workload order, so it is bit for
    bit the bound of the child's blocks computed from scratch. Nothing
    is allocated per node. *)

type search = {
  child : int -> int -> float;
      (** [child i j]: the bound after atom [i] joins block [j], at a
          node where atoms [0, i) are placed. Leaves the node as it
          was. *)
  descend : int -> int -> unit;
      (** [descend i j]: place atom [i] in block [j]. *)
  ascend : int -> int -> unit;
      (** [ascend i j]: undo [descend i j]. *)
}
(** One run's bound state over one atom order. Block [j] may be any
    block already opened or the next empty one, as in a restricted
    growth string. *)

val io_brute_force : Disk.t -> Workload.t -> Attr_set.t array -> search
(** Lower bound matching {!Io_model.workload_cost}. *)

val memory_brute_force :
  Memory_model.t -> Workload.t -> Attr_set.t array -> search
(** Lower bound matching {!Memory_model.workload_cost} (no seek term). *)
