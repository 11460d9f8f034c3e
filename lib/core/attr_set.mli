(** Sets of attribute positions within a single table.

    Attribute positions are small non-negative integers (the index of the
    attribute in the table schema), so sets are represented as bit masks in a
    single native [int]. All tables in TPC-H and SSB have at most 17
    attributes; the representation supports up to {!max_attributes}. *)

type t
(** An immutable set of attribute positions. Structural equality, comparison
    and hashing behave as expected. *)

val max_attributes : int
(** Largest attribute position representable, i.e. positions must lie in
    [0 .. max_attributes - 1]. Equal to [Sys.int_size - 1] (62 on 64-bit). *)

val empty : t

val is_empty : t -> bool

val singleton : int -> t
(** [singleton i] is the set [{i}]. @raise Invalid_argument if [i] is out of
    range. *)

val add : int -> t -> t

val remove : int -> t -> t

val mem : int -> t -> bool

val cardinal : t -> int

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] is in [b]. *)

val disjoint : t -> t -> bool

val intersects : t -> t -> bool
(** [intersects a b] is [not (disjoint a b)]. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val of_list : int list -> t

val to_list : t -> int list
(** Elements in increasing order. *)

val full : int -> t
(** [full n] is the set [{0, 1, ..., n-1}]. *)

val iter : (int -> unit) -> t -> unit
(** Iterates in increasing order of position. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val filter : (int -> bool) -> t -> t

val min_elt : t -> int
(** @raise Not_found on the empty set. *)

val max_elt : t -> int
(** @raise Not_found on the empty set. *)

val choose : t -> int
(** Same as {!min_elt}. *)

val subsets : t -> t list
(** All subsets of the given set, including the empty set and the set itself.
    [List.length (subsets s) = 1 lsl (cardinal s)]. Intended for small sets
    (the caller should bound [cardinal s], e.g. at 20). *)

val to_mask : t -> int
(** The underlying bit mask: bit [i] is set iff [i] is a member. *)

val of_mask : int -> t
(** Inverse of {!to_mask}. @raise Invalid_argument on negative masks. *)

val lowest_bit_index : int -> int
(** Position of the lowest set bit of a non-zero mask (unchecked). *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0,3,5}]. *)

val to_string : t -> string
