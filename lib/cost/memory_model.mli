open Vp_core

(** Main-memory cost model (the HYRISE-style model used for Table 6).

    In main memory the seek cost is negligible relative to the scan cost, so
    the model charges only for the bytes streamed through the cache: a query
    touches every row of every referenced container, and contiguous rows
    share cache lines, so the traffic of a referenced partition is its full
    payload rounded up to whole cache lines per row batch. The paper's
    finding (Table 6) follows directly: column layout reads exactly the
    needed bytes and cannot be beaten, and any grouping that adds
    unreferenced attributes (Navathe, O2P) is strictly worse. *)

type t = private {
  cache_line : int;  (** Cache line size in bytes (default 64). *)
  bandwidth : float;  (** Memory bandwidth in bytes/second (default 10 GiB/s). *)
}

val make : ?cache_line:int -> ?bandwidth:float -> unit -> t
(** @raise Invalid_argument on non-positive parameters. *)

val default : t

val query_cost : t -> Table.t -> Partitioning.t -> Query.t -> float
(** Seconds to stream every referenced container once: for each referenced
    partition of row size [s], traffic is
    [rows * s] bytes rounded up to whole cache lines. *)

val workload_cost : t -> Workload.t -> Partitioning.t -> float

val oracle : t -> Workload.t -> Partitioner.cost_fn

val request : t -> Workload.t -> Partitioner.Request.t
(** [request m w] pairs {!oracle} with the reference session
    {!Partitioner.Delta.full}: this model has no incremental session, so
    a search builds and costs each candidate in full. *)
