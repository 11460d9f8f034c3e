(** Vertical partitionings: set partitions of a table's attribute positions.

    A partitioning splits the attribute set [{0, ..., n-1}] into disjoint,
    non-empty groups ("vertical partitions" / "column groups"), whose union
    is the full set. The canonical form orders groups by their minimum
    attribute position, which makes structural equality meaningful. *)

type t
(** A canonical, validated partitioning. *)

val of_groups : n:int -> Attr_set.t list -> t
(** Builds a partitioning of [n] attributes from the given groups.
    @raise Invalid_argument if groups are empty, overlap, or do not cover
    [{0..n-1}] exactly. *)

val of_assignment : int array -> t
(** [of_assignment a] builds the partitioning in which attribute [i] belongs
    to the group labelled [a.(i)]; labels are arbitrary integers.
    @raise Invalid_argument on an empty array. *)

val row : int -> t
(** The single-partition layout (row layout) over [n] attributes. *)

val column : int -> t
(** The all-singletons layout (column layout) over [n] attributes. *)

val attribute_count : t -> int

val group_count : t -> int

val groups : t -> Attr_set.t list
(** Groups in canonical order (increasing minimum element). *)

val group_array : t -> Attr_set.t array
(** Groups in canonical order as a fresh array. *)

val group_of : t -> int -> Attr_set.t
(** [group_of p i] is the group containing attribute [i].
    @raise Invalid_argument if [i] is out of range. *)

val group_index_of : t -> int -> int
(** Index (in canonical order) of the group containing attribute [i]. *)

val iter_groups : (Attr_set.t -> unit) -> t -> unit
(** [iter_groups f p] applies [f] to every group in canonical order
    without building an intermediate list (hot-path variant of
    {!groups}). *)

val mem_group : t -> Attr_set.t -> bool
(** [mem_group p g] is [true] iff [g] is exactly one of [p]'s groups. *)

val referenced_groups : t -> Attr_set.t -> Attr_set.t list
(** [referenced_groups p refs] lists the groups that contain at least one
    attribute of [refs] — the partitions a query with footprint [refs] must
    read under the paper's common-granularity rule. *)

val referenced_group_count : t -> Attr_set.t -> int

val referenced_group_array : t -> Attr_set.t -> Attr_set.t array
(** {!referenced_groups} as a fresh array, in canonical order. *)

val changed_attrs : t -> t -> Attr_set.t
(** The union of [q]'s groups that are not groups of [p]: the attributes
    whose group differs between the two. One O(k) ordered walk. *)

val merge_groups : t -> Attr_set.t -> Attr_set.t -> t
(** [merge_groups p g1 g2] replaces two distinct groups by their union.
    @raise Invalid_argument if either is not a group of [p] or both are the
    same group. *)

val split_group : t -> Attr_set.t -> Attr_set.t -> t
(** [split_group p g sub] replaces group [g] by [sub] and [g \ sub].
    @raise Invalid_argument if [g] is not a group, or [sub] is empty, equal
    to [g], or not a subset of [g]. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash_groups : seed:int -> Attr_set.t array -> int
(** A non-negative hash that mixes every group mask, for hash tables
    keyed on group arrays. *)

val is_refinement : t -> t -> bool
(** [is_refinement fine coarse] is [true] iff every group of [fine] is
    contained in some group of [coarse]. *)

val of_names : Table.t -> string list list -> t
(** Convenience: build a partitioning of a table from attribute-name
    groups. @raise Not_found on unknown names. *)

val pp : Format.formatter -> t -> unit
(** Prints as [[{0,1}|{2}|{3,4}]]. *)

val pp_named : Table.t -> Format.formatter -> t -> unit
(** Prints with attribute names, e.g.
    [[PartKey,SuppKey | AvailQty,SupplyCost | Comment]]. *)

val to_string : t -> string
