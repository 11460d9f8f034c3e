open Vp_core

(** Deterministic row generation for the TPC-H and SSB schemas.

    Rows are generated independently of each other — [row table i] derives
    a private PRNG stream from (seed, table name, i) — so any subset of a
    table can be produced in any order, which the storage simulator uses to
    build partition files column group by column group without holding the
    whole table in memory. Each column's generator (with the table's
    stream and the attribute salts) is resolved once per {!chunk} or
    {!row} call, not per value. *)

type t

val create : ?seed:int64 -> unit -> t
(** Default seed 42. *)

val row : t -> Table.t -> int -> Value.t array
(** [row gen table i] is row [i] (0-based, [i < Table.row_count table]) of
    the named TPC-H or SSB table; values align with the table's attribute
    order and datatypes. Unknown tables get generic type-driven values.
    @raise Invalid_argument if [i] is out of range. *)

val default_chunk_rows : int
(** Rows per chunk when none is given (65536). *)

val chunk_count : ?chunk_rows:int -> Table.t -> int
(** Number of chunks covering the table ([0] for an empty table).
    @raise Invalid_argument if [chunk_rows < 1]. *)

val chunk : t -> ?chunk_rows:int -> Table.t -> int -> Value.t array array
(** [chunk gen table c] is rows [c * chunk_rows .. min ((c+1) * chunk_rows,
    row_count) - 1] of the table — the last chunk may be short. Every
    row's PRNG stream is derived from (seed, table, row index), so a
    chunk is fully determined by (seed, table, chunk index): chunks
    generate independently, in any order, on any domain, in O(chunk)
    time regardless of their position — chunk [c] of an SF100 table
    costs the same whether [c] is 0 or the last one.
    @raise Invalid_argument if the index is out of range. *)

val iter_chunks :
  ?chunk_rows:int ->
  t ->
  Table.t ->
  (first_row:int -> Value.t array array -> unit) ->
  unit
(** Streams every chunk in table order through [f]: the bounded-memory
    pull API. Concatenating the chunks is byte-identical to {!rows}
    (property-tested). *)

val rows : t -> Table.t -> Value.t array array
(** All rows of the table — a thin materializing wrapper over
    {!iter_chunks} (intended for the scaled-down datasets used in tests
    and storage experiments). *)
