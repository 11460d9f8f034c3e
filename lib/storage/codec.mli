open Vp_core

(** Storage codecs for partition files.

    - [Plain]: the uncompressed fixed-slot encoding the cost model assumes
      (4-byte ints/dates, 8-byte decimals, strings padded to their declared
      width).
    - [Dictionary]: fixed-size codes — every string column is
      dictionary-encoded into the smallest byte width that covers its
      distinct values; numeric columns stay fixed. Rows keep a fixed size,
      so per-row addressing stays cheap (the paper's "dictionary
      compression" configuration in Table 7).
    - [Varlen]: variable-length encoding in the spirit of LZO/delta —
      varint integers, length-prefixed unpadded strings. Densest on disk,
      but rows lose their fixed stride, which makes tuple reconstruction
      inside multi-column groups CPU-expensive (the paper's "default
      compression" configuration). *)

type kind = Plain | Dictionary | Varlen

val kind_name : kind -> string

type column = {
  attr : Attribute.t;
  dictionary : string array;  (** Decode table; empty unless dict-coded. *)
  code_width : int;  (** Encoded byte width; 0 for variable width. *)
}

type t
(** An encoder/decoder for one column group, trained on the data. *)

val train : kind -> Attribute.t list -> Value.t array array -> t
(** [train kind attrs column_major] builds a codec for a group whose
    [i]-th column holds the values [column_major.(i)] (one per row).
    @raise Invalid_argument on shape mismatch or value/type mismatch. *)

(** Streaming trainer: feed rows (in group column order) chunk by chunk;
    {!Train.finish} yields a codec identical to {!train} on the
    materialized projection — dictionaries collect distinct values and
    are sorted, so the result is independent of feed order. Only
    [Dictionary] actually needs the data pass; [Plain]/[Varlen] training
    is data-independent (bar validation). *)
module Train : sig
  type builder

  val create : kind -> Attribute.t list -> builder

  val feed : builder -> positions:int array -> Value.t array -> unit
  (** One full-table row; group column [k] is [row.(positions.(k))].
      @raise Invalid_argument on arity or value/type mismatch. *)

  val finish : builder -> t
end

val bytes_for_cardinality : int -> int
(** Smallest fixed code width (1-4 bytes) covering that many distinct
    values — the dictionary column width rule, exposed for the
    {!Format} cost model. *)

val kind : t -> kind

val columns : t -> column list

val encode_into :
  t -> positions:int array -> Value.t array -> Bytes.t -> pos:int -> int
(** [encode_into c ~positions row b ~pos] writes group column [k] =
    [row.(positions.(k))] of a full-table row straight into [b] at [pos]
    ({!encoded_width} bytes) and returns the position after the row.
    @raise Invalid_argument on a value/type mismatch. *)

val encoded_width : t -> positions:int array -> Value.t array -> int
(** Bytes {!encode_into} writes: the stride of a fixed-stride codec, the
    per-value sum (validating types) for [Varlen]. *)

val encode_row : t -> Value.t array -> Bytes.t
(** One row (values in group column order) into fresh bytes. *)

val decode_row : t -> Bytes.t -> pos:int -> Value.t array * int
(** [decode_row c b ~pos] decodes the row starting at [pos], returning the
    values and the position after the row. Decoding is exact for
    [Plain]/[Dictionary]/[Varlen] except that [Plain] and [Dictionary]
    truncate strings longer than the declared width. *)

type projection
(** A reader for some group columns: their offsets in a fixed-stride row
    and, for dictionary columns, the hash of every entry. *)

val project : t -> int array -> projection

val digest : projection -> Bytes.t -> pos:int -> skip:int -> count:int -> int
(** The executor's checksum of rows [skip .. skip+count-1] of the rows
    encoded from [pos]: a commutative sum of [Hashtbl.hash] over the
    projected values (decimals rounded to cents). Fixed-stride codecs
    read column [c] of row [k] at [pos + k*stride + offset c]; [Varlen]
    walks the rows with {!decode_row}. *)

val fixed_row_width : t -> int option
(** [Some w] for the fixed-stride codecs, [None] for [Varlen]. *)

val avg_row_width : t -> float
(** Mean encoded row size over the training data (= the fixed width when
    there is one). *)

val with_avg_row_width : t -> float -> t
(** Records the measured mean encoded row size (set by {!Pfile.build} for
    [Varlen] files). *)

val decode_ns_per_value : kind -> in_group:bool -> float
(** CPU cost model: nanoseconds to decode one value, higher for [Varlen]
    and higher still when the value sits inside a multi-column group
    ([in_group]), where the variable stride forces a sequential walk —
    the mechanism behind Table 7's column-vs-column-group gap. *)
