(** A workload over a single table: the unit on which all vertical
    partitioning algorithms operate.

    The paper partitions each table separately (Section 4, "we partition each
    table in TPC-H separately"), so a workload bundles one table with the
    queries that reference at least one of its attributes. Queries that do
    not touch the table are dropped at construction time. *)

type t = private { table : Table.t; queries : Query.t array }

val make : Table.t -> Query.t list -> t
(** Builds a workload, silently dropping queries with an empty reference set
    would be invalid ({!Query.make} forbids them); raises if any query
    references a position outside the table.
    @raise Invalid_argument on out-of-range attribute references. *)

val total_weight : t -> float
(** Sum of all query weights. *)

val table : t -> Table.t

val queries : t -> Query.t array
(** A fresh copy. *)

val query_count : t -> int

val query : t -> int -> Query.t

val prefix : t -> int -> t
(** [prefix w k] keeps only the first [k] queries (the paper's "first k
    queries of TPC-H" experiments). [k] is clamped to
    [0 .. query_count w]. *)

val referenced_attributes : t -> Attr_set.t
(** Union of all query reference sets. *)

val unreferenced_attributes : t -> Attr_set.t
(** Attributes of the table no query touches. *)

val co_access_count : t -> int -> int -> float
(** [co_access_count w i j] is the total weight of queries referencing both
    attribute [i] and attribute [j] (for [i = j], the total weight of queries
    referencing [i]). This is the affinity in Navathe's sense. *)

val access_signature : t -> int -> Attr_set.t
(** [access_signature w i] is the set of query indices (as an {!Attr_set.t}
    over query positions) that reference attribute [i]. Only valid when the
    workload has at most [Attr_set.max_attributes] queries; raises
    otherwise. Used to compute primary partitions / atomic fragments. *)

val primary_partitions : t -> Attr_set.t list
(** Groups of attributes that are always accessed together by every query
    (equal access signatures) — AutoPart's "atomic fragments" and HYRISE's
    "primary partitions". Unreferenced attributes form one group of their
    own. The groups form a partition of the table's attributes, ordered by
    their minimum attribute position. *)

val scale_weights : t -> float -> t
(** Multiplies every query weight by the given positive factor. *)

val with_table : t -> Table.t -> t
(** Replaces the table (e.g. with a re-scaled row count); schemas must have
    the same attribute count.
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> t -> unit
