(** Logical table schemas.

    A table is a named, ordered list of attributes together with its row
    count (the row count at the scale factor under study; TPC-H row counts
    scale linearly with the scale factor except for the tiny Nation and
    Region tables). *)

type t = private {
  name : string;
  attributes : Attribute.t array;
  row_count : int;
}

val make : name:string -> attributes:Attribute.t list -> row_count:int -> t
(** @raise Invalid_argument if the attribute list is empty, exceeds
    {!Attr_set.max_attributes}, contains duplicate names, or [row_count] is
    negative. *)

val name : t -> string

val attribute_count : t -> int

val attribute : t -> int -> Attribute.t
(** [attribute t i] is the attribute at position [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val attributes : t -> Attribute.t array
(** A fresh copy of the attribute array. *)

val row_count : t -> int

val with_row_count : t -> int -> t
(** Same schema with a different row count (used when scaling a dataset). *)

val position : t -> string -> int
(** Position of the attribute with the given name.
    @raise Not_found if no attribute has this name. *)

val width : t -> int -> int
(** Byte width of the attribute at the given position. *)

val row_size : t -> int
(** Total byte width of one full row (all attributes). *)

val subset_size : t -> Attr_set.t -> int
(** Total byte width of the given attribute subset within one row.
    @raise Invalid_argument if the set refers to positions outside the
    table. *)

val all_attributes : t -> Attr_set.t
(** The set [{0, ..., attribute_count - 1}]. *)

val attr_set_of_names : t -> string list -> Attr_set.t
(** Resolve attribute names to a position set.
    @raise Not_found if any name is unknown. *)

val names_of_attr_set : t -> Attr_set.t -> string list

val pp : Format.formatter -> t -> unit

val codec : t Vp_observe.Json.Codec.t
(** [{"name", "rows", "attributes": [{"name", "type", "width"?}]}]: the
    table as the wire, the snapshot and the session meta file all carry
    it. Decoding applies {!make}'s checks, failing with
    [invalid table: …]. *)
