open Vp_core

type t = { seed : int64 }

let create ?(seed = 42L) () = { seed }

(* Scale factor implied by a table's row count, from the TPC-H / SSB base
   cardinalities; 1.0 for unknown or fixed-size tables. *)
let implied_sf table =
  let base =
    match Table.name table with
    | "customer" -> Some 150_000
    | "lineitem" | "lineorder" -> Some 6_000_000
    | "orders" -> Some 1_500_000
    | "part" -> Some 200_000
    | "partsupp" -> Some 800_000
    | "supplier" -> Some 10_000
    | _ -> None
  in
  match base with
  | Some b -> max 1e-6 (float_of_int (Table.row_count table) /. float_of_int b)
  | None -> 1.0

let scaled sf base = max 1 (int_of_float (float_of_int base *. sf))

let epoch_lo = 8036 (* 1992-01-01 as days since 1970 *)

let epoch_hi = 10591 (* 1998-12-31 *)

(* Values are immutable, so a column drawn from a small set shares one
   boxed value per member instead of allocating one per row: the chunks
   a consumer holds stay small. *)
let shared f lo hi =
  let values = Array.init (hi - lo + 1) (fun k -> f (lo + k)) in
  fun k -> values.(k - lo)

let dates = shared (fun d -> Value.Int d) epoch_lo epoch_hi

let date g = dates (Prng.int_in g epoch_lo epoch_hi)

let choice strings =
  let values = Array.map (fun s -> Value.Str s) strings in
  fun g _ -> Prng.choice g values

(* Type-driven generator for columns without a specific one. *)
let generic (attr : Attribute.t) =
  match Attribute.datatype attr with
  | Attribute.Int32 -> fun g _ -> Value.Int (Prng.int_in g 0 999_999)
  | Attribute.Decimal -> fun g _ -> Value.Num (Prng.float g 100_000.0)
  | Attribute.Date -> fun g _ -> date g
  | Attribute.Char n | Attribute.Varchar n ->
      fun g _ -> Value.Str (Text.sentence g ~max_len:n)

(* The generator of one column, resolved once per table: keyed by
   (table, attribute) name, with the table's implied scale folded in.
   It maps the column's private stream and the 0-based row index [key]
   (primary keys are sequential, as in dbgen) to the value. *)
let special table attr : Prng.t -> int -> Value.t =
  let sf = implied_sf table in
  let customers = scaled sf 150_000 in
  let parts = scaled sf 200_000 in
  let suppliers = scaled sf 10_000 in
  match (Table.name table, Attribute.name attr) with
  (* --- shared key columns --- *)
  | ("customer", "CustKey" | "supplier", "SuppKey" | "part", "PartKey") ->
      fun _ key -> Value.Int (key + 1)
  | "orders", "OrderKey" -> fun _ key -> Value.Int (key + 1)
  | "nation", "NationKey" | "region", "RegionKey" -> fun _ key -> Value.Int key
  | "lineitem", "OrderKey" ->
      (* ~4 lines per order, lines of one order adjacent *)
      fun _ key -> Value.Int ((key / 4) + 1)
  | "lineitem", "LineNumber" ->
      let line = shared (fun n -> Value.Int n) 1 4 in
      fun _ key -> line ((key mod 4) + 1)
  | "partsupp", "PartKey" -> fun _ key -> Value.Int ((key / 4) + 1)
  | "partsupp", "SuppKey" ->
      fun _ key -> Value.Int (1 + ((key + (key / 4)) mod suppliers))
  | (("lineitem" | "lineorder"), "PartKey") ->
      fun g _ -> Value.Int (Prng.int_in g 1 parts)
  | (("lineitem" | "lineorder"), "SuppKey") ->
      fun g _ -> Value.Int (Prng.int_in g 1 suppliers)
  | (("orders" | "lineorder"), "CustKey") ->
      fun g _ -> Value.Int (Prng.int_in g 1 customers)
  | ("customer" | "supplier"), "NationKey" -> fun g _ -> Value.Int (Prng.int g 25)
  | "nation", "RegionKey" -> fun _ key -> Value.Int (key / 5)
  (* --- names and enumerations --- *)
  | "customer", "Name" ->
      fun g key -> Value.Str (Text.name g ~prefix:"Customer" (key + 1))
  | "supplier", "Name" ->
      fun g key -> Value.Str (Text.name g ~prefix:"Supplier" (key + 1))
  | "nation", "Name" -> fun _ key -> Value.Str Text.nations.(key mod 25)
  | "region", "Name" -> fun _ key -> Value.Str Text.regions.(key mod 5)
  | "customer", "MktSegment" -> choice Text.segments
  | (("orders" | "lineorder"), "OrderPriority") -> choice Text.priorities
  | "orders", "OrderStatus" -> choice [| "F"; "O"; "P" |]
  | "orders", "Clerk" ->
      fun g _ -> Value.Str (Text.name g ~prefix:"Clerk" (1 + Prng.int g 1000))
  | "orders", "ShipPriority" -> fun _ _ -> Value.Int 0
  | (("lineitem" | "lineorder"), "ShipMode") -> choice Text.ship_modes
  | "lineitem", "ShipInstruct" -> choice Text.instructions
  | "lineitem", "ReturnFlag" -> choice [| "A"; "N"; "R" |]
  | "lineitem", "LineStatus" -> choice [| "F"; "O" |]
  | ("part", "Brand" | "part", "Brand1") -> choice Text.brands
  | "part", "Container" -> choice Text.containers
  | "part", "Type" -> choice Text.types
  | "part", "Mfgr" ->
      fun g _ -> Value.Str (Printf.sprintf "Manufacturer#%d" (Prng.int_in g 1 5))
  | ("customer" | "supplier"), "Phone" -> fun g _ -> Value.Str (Text.phone g)
  | ("customer" | "supplier"), "Address" ->
      fun g _ -> Value.Str (Text.address g ~max_len:38)
  (* --- measures --- *)
  | (("lineitem" | "lineorder"), "Quantity") -> (
      match Attribute.datatype attr with
      | Attribute.Decimal ->
          let q = shared (fun n -> Value.Num (float_of_int n)) 1 50 in
          fun g _ -> q (Prng.int_in g 1 50)
      | _ -> fun g _ -> Value.Int (Prng.int_in g 1 50))
  | "lineitem", "ExtendedPrice" ->
      fun g _ -> Value.Num (Prng.float g 100_000.0 +. 900.0)
  | "lineitem", "Discount" ->
      let d = shared (fun n -> Value.Num (float_of_int n /. 100.0)) 0 10 in
      fun g _ -> d (Prng.int_in g 0 10)
  | "lineitem", "Tax" ->
      let t = shared (fun n -> Value.Num (float_of_int n /. 100.0)) 0 8 in
      fun g _ -> t (Prng.int_in g 0 8)
  | ("customer" | "supplier"), "AcctBal" ->
      fun g _ -> Value.Num (Prng.float g 10_999.0 -. 999.0)
  | "orders", "TotalPrice" ->
      fun g _ -> Value.Num (Prng.float g 400_000.0 +. 1_000.0)
  | "partsupp", "AvailQty" -> fun g _ -> Value.Int (Prng.int_in g 1 9_999)
  | "partsupp", "SupplyCost" -> fun g _ -> Value.Num (Prng.float g 999.0 +. 1.0)
  | "part", "Size" -> fun g _ -> Value.Int (Prng.int_in g 1 50)
  | "part", "RetailPrice" -> fun g _ -> Value.Num (900.0 +. Prng.float g 1_200.0)
  | _, "OrderKey" -> fun _ key -> Value.Int ((key / 4) + 1)
  | _ -> generic attr

let attr_salt table_name attr_name =
  Hashtbl.hash (table_name, attr_name) land 0xFFFF

(* A table's row generator: its PRNG stream and, per attribute, the
   salt of the attribute's stream and its generator, resolved once. *)
let compile gen table =
  let table_name = Table.name table in
  let attrs = Table.attributes table in
  let table_stream =
    Prng.split (Prng.create gen.seed) (Hashtbl.hash table_name land 0xFFFF)
  in
  let salts = Array.map (fun a -> attr_salt table_name (Attribute.name a)) attrs in
  let gens = Array.map (special table) attrs in
  fun i ->
    let row_stream = Prng.split table_stream i in
    Array.mapi (fun a f -> f (Prng.split row_stream salts.(a)) i) gens

let row gen table i =
  if i < 0 || i >= Table.row_count table then
    invalid_arg
      (Printf.sprintf "Rowgen.row: index %d out of range for %s" i
         (Table.name table));
  compile gen table i

(* --- chunked access ---

   A chunk is a fixed-size run of consecutive row indices. Because every
   row derives a private PRNG stream from (seed, table, row index), a
   chunk's streams are fully determined by (seed, table, chunk index):
   chunks can be generated independently, in any order, on any domain,
   and concatenating them reproduces [rows] byte for byte. *)

let default_chunk_rows = 65_536

let check_chunk_rows chunk_rows =
  if chunk_rows < 1 then invalid_arg "Rowgen: chunk_rows < 1"

let chunk_count ?(chunk_rows = default_chunk_rows) table =
  check_chunk_rows chunk_rows;
  (Table.row_count table + chunk_rows - 1) / chunk_rows

let chunk gen ?(chunk_rows = default_chunk_rows) table index =
  check_chunk_rows chunk_rows;
  let n = Table.row_count table in
  let chunks = (n + chunk_rows - 1) / chunk_rows in
  if index < 0 || index >= max 1 chunks then
    invalid_arg
      (Printf.sprintf "Rowgen.chunk: index %d out of range for %s" index
         (Table.name table));
  let first = index * chunk_rows in
  let len = min chunk_rows (n - first) in
  let row = compile gen table in
  Array.init (max 0 len) (fun k -> row (first + k))

let iter_chunks ?(chunk_rows = default_chunk_rows) gen table f =
  check_chunk_rows chunk_rows;
  let chunks = chunk_count ~chunk_rows table in
  for index = 0 to chunks - 1 do
    f ~first_row:(index * chunk_rows) (chunk gen ~chunk_rows table index)
  done

(* Thin materializing wrapper over the chunk API: small-SF callers keep
   the whole-table interface, and the byte-identity contract between the
   two paths is enforced by construction. *)
let rows gen table =
  let out = Array.make (Table.row_count table) [||] in
  iter_chunks gen table (fun ~first_row chunk ->
      Array.blit chunk 0 out first_row (Array.length chunk));
  out
