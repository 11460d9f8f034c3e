open Vp_core

(** Partition files: one column group of a table, encoded into fixed-size
    blocks. Rows are stored in table order, so reconstructing a tuple means
    reading the same row rank from every referenced partition file.

    A file exists in one of two storage modes:
    - {e materialized} — actual encoded block images, decodable with
      {!read_rows};
    - {e virtual} (accounting-only) — block geometry (block count,
      row-to-block map, payload) without the bytes, the out-of-core mode
      the SF100-class simulation runs in. Virtual files answer every
      geometry question ({!block_count}, {!block_of_row},
      {!first_row_of_block}…) identically to their materialized twins
      (property-tested), but {!read_rows} rejects them.

    For fixed-stride codecs ([Plain], [Dictionary]) the geometry is
    value-independent — floor(block size / row width) rows per block — so
    a virtual file needs no data pass at all and O(1) metadata however
    large the table. Variable-stride ([Varlen]) geometry is data-driven:
    building it streams the source once through
    {!Codec.encoded_width} and keeps O(blocks) metadata. *)

type t

val build :
  block_size:int ->
  codec_kind:Codec.kind ->
  Table.t ->
  group:Attr_set.t ->
  Value.t array array ->
  t
(** [build ~block_size ~codec_kind table ~group rows] encodes the
    projection of [rows] (full table rows, row-major) onto [group] into
    blocks. Rows never span blocks; a row wider than the block size is
    rejected.
    @raise Invalid_argument on an empty group, arity mismatches, or
    oversized rows. *)

val build_stream :
  block_size:int ->
  codec_kind:Codec.kind ->
  ?retain:bool ->
  Table.t ->
  group:Attr_set.t ->
  Vp_stream.Source.t ->
  t
(** Streaming build in a bounded working set (one chunk at a time).
    With [retain:true] (default) the result is byte-identical to
    {!build} on the materialized source. With [retain:false] the file is
    virtual. [Dictionary] training streams the source once before the
    encode pass; sources are re-iterable by contract. *)

(** {2 Incremental building}

    For callers that feed several files from one pass over a source
    (a database build, a layout transform): train codecs first, then
    create one builder per file, feed every chunk to every builder that
    {!needs_rows}, and {!finish}. *)

val train :
  Table.t ->
  Vp_stream.Source.t ->
  Attr_set.t list ->
  Codec.kind list ->
  Codec.t list
(** [train table source groups kinds] trains one codec per group. Only
    dictionaries need the data, so the source is streamed once, and only
    when some group is dictionary-coded. *)

type builder

val builder :
  block_size:int ->
  codec:Codec.t ->
  retain:bool ->
  rows:int ->
  Table.t ->
  group:Attr_set.t ->
  builder
(** A builder for a file of exactly [rows] rows (checked at
    {!finish}). *)

val needs_rows : builder -> bool
(** [false] when the file's geometry is value-independent
    ([retain:false] + fixed-stride codec): feeding is unnecessary and
    {!finish} computes the file analytically. *)

val feed : builder -> Value.t array array -> unit
(** Append a chunk of full-table rows: each row's group columns are
    encoded straight into the open block ({!Codec.encode_into}), with no
    per-row projection or buffer. A no-op except row counting when
    [not (needs_rows b)]. *)

val finish : builder -> t
(** @raise Invalid_argument if the fed row count disagrees with the
    declared one (when rows were needed). *)

val group : t -> Attr_set.t

val codec : t -> Codec.t

val block_count : t -> int

val row_count : t -> int

val is_virtual : t -> bool
(** Accounting-only file: geometry without bytes; {!read_rows} rejects
    it. *)

val bytes_on_disk : t -> int
(** [block_count * block_size]. *)

val payload_bytes : t -> int
(** Encoded bytes without block padding. *)

val read_rows : t -> first_row:int -> count:int -> Value.t array array
(** Decodes rows [first_row .. first_row+count-1] (clamped to the file's
    end) in group column order. The executor does not build rows (see
    {!digest_rows}); this is the reference decoder the tests fold its
    checksum through.
    @raise Invalid_argument on a virtual file. *)

val digest_rows :
  t -> Codec.projection -> first_row:int -> count:int -> int
(** The {!Codec.digest} of rows [first_row .. first_row+count-1]
    (clamped), read block by block straight from the block bytes — the
    in-memory half of a scan; the device accounting happens in
    {!Database}. Equals the value hashes of {!read_rows}' projected
    columns summed (property-tested).
    @raise Invalid_argument on a virtual file. *)

val block_of_row : t -> int -> int
(** Block index holding a given row. *)

val first_row_of_block : t -> int -> int
(** First row stored in a given block (O(1)). *)

val rows_in_block : t -> int -> int

val blocks_spanning : t -> first_row:int -> count:int -> int * int
(** [(first_block, block_count)] covering the row range (clamped). *)
