open Vp_core

(* Where a file's row ranks live: fixed-stride files (plain, dictionary)
   need only the constant rows-per-block — O(1) metadata even at SF100 —
   while variable-stride files carry explicit per-block tables. *)
type rowmap =
  | Fixed of int  (** rows per full block *)
  | Explicit of { first : int array; rows : int array }

type storage =
  | Blocks of Bytes.t array  (** encoded block images (materialized) *)
  | Virtual  (** accounting-only: block geometry without the bytes *)

type t = {
  group : Attr_set.t;
  codec : Codec.t;
  block_size : int;
  storage : storage;
  rowmap : rowmap;
  block_count : int;
  row_count : int;
  payload : int;
}

let group f = f.group

let codec f = f.codec

let block_count f = f.block_count

let row_count f = f.row_count

let bytes_on_disk f = f.block_count * f.block_size

let payload_bytes f = f.payload

let is_virtual f = match f.storage with Virtual -> true | Blocks _ -> false

let first_row_of_block f b =
  if b < 0 || b >= f.block_count then
    invalid_arg (Printf.sprintf "Pfile.first_row_of_block: block %d" b);
  match f.rowmap with Fixed rpb -> b * rpb | Explicit m -> m.first.(b)

let rows_in_block f b =
  if b < 0 || b >= f.block_count then
    invalid_arg (Printf.sprintf "Pfile.rows_in_block: block %d" b);
  match f.rowmap with
  | Fixed rpb -> min rpb (f.row_count - (b * rpb))
  | Explicit m -> m.rows.(b)

let block_of_row f row =
  if row < 0 || row >= f.row_count then
    invalid_arg (Printf.sprintf "Pfile.block_of_row: row %d out of range" row);
  match f.rowmap with
  | Fixed rpb -> row / rpb
  | Explicit m ->
      (* Binary search over the block-first-row table. *)
      let lo = ref 0 and hi = ref (f.block_count - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if m.first.(mid) <= row then lo := mid else hi := mid - 1
      done;
      !lo

let blocks_spanning f ~first_row ~count =
  if f.row_count = 0 || count <= 0 then (0, 0)
  else begin
    let first_row = max 0 (min first_row (f.row_count - 1)) in
    let last_row = min (f.row_count - 1) (first_row + count - 1) in
    let b0 = block_of_row f first_row in
    let b1 = block_of_row f last_row in
    (b0, b1 - b0 + 1)
  end

(* --- building ---

   One builder per target file; rows arrive as full-table chunks and
   {!Codec.encode_into} writes each row's group columns straight into
   the open block. [retain:true] packs actual encoded bytes — byte-
   identical to the historic materialized build. [retain:false] tracks
   only block geometry (encoded widths, block boundaries); and when the
   codec has a fixed stride the geometry is value-independent, so
   feeding rows becomes unnecessary altogether ([needs_rows = false])
   and [finish] computes the file analytically — the fast path that
   makes SF100-class simulation O(1) per file. The streamed identity
   tests pin all three paths to the same block counts and payload. *)

type builder = {
  b_group : Attr_set.t;
  b_codec : Codec.t;
  b_block_size : int;
  b_retain : bool;
  b_rows : int;  (** declared total row count *)
  b_positions : int array;
  b_arity : int;  (** full-table row arity, for validation *)
  b_fixed : int option;  (** fixed encoded width, when the codec has one *)
  mutable fed : int;
  (* current (open) block *)
  mutable cur_block : Bytes.t;  (** the open block's image when retained *)
  mutable cur_len : int;
  mutable cur_first : int;
  mutable cur_count : int;
  (* finished blocks, newest first *)
  mutable blocks_rev : Bytes.t list;
  mutable first_rev : int list;
  mutable rows_rev : int list;
  mutable n_blocks : int;
  mutable payload : int;
}

let builder ~block_size ~codec ~retain ~rows table ~group =
  if Attr_set.is_empty group then invalid_arg "Pfile.builder: empty group";
  if rows < 0 then invalid_arg "Pfile.builder: negative row count";
  {
    b_group = group;
    b_codec = codec;
    b_block_size = block_size;
    b_retain = retain;
    b_rows = rows;
    b_positions = Array.of_list (Attr_set.to_list group);
    b_arity = Table.attribute_count table;
    b_fixed = Codec.fixed_row_width codec;
    fed = 0;
    cur_block = Bytes.empty;
    cur_len = 0;
    cur_first = 0;
    cur_count = 0;
    blocks_rev = [];
    first_rev = [];
    rows_rev = [];
    n_blocks = 0;
    payload = 0;
  }

let needs_rows b = b.b_retain || b.b_fixed = None

let flush b =
  if b.cur_count > 0 then begin
    if b.b_retain then b.blocks_rev <- b.cur_block :: b.blocks_rev;
    b.first_rev <- b.cur_first :: b.first_rev;
    b.rows_rev <- b.cur_count :: b.rows_rev;
    b.n_blocks <- b.n_blocks + 1;
    b.cur_len <- 0;
    b.cur_count <- 0
  end

let feed b chunk =
  if needs_rows b then
    Array.iter
      (fun row ->
        if Array.length row <> b.b_arity then
          invalid_arg "Pfile.build: row arity mismatch";
        let len =
          match b.b_fixed with
          | Some w -> w
          | None -> Codec.encoded_width b.b_codec ~positions:b.b_positions row
        in
        if len > b.b_block_size then
          invalid_arg
            (Printf.sprintf
               "Pfile.build: row of %d bytes exceeds the %d-byte block" len
               b.b_block_size);
        if b.cur_len + len > b.b_block_size then flush b;
        if b.cur_count = 0 then begin
          b.cur_first <- b.fed;
          if b.b_retain then b.cur_block <- Bytes.make b.b_block_size '\000'
        end;
        if b.b_retain then
          ignore
            (Codec.encode_into b.b_codec ~positions:b.b_positions row
               b.cur_block ~pos:b.cur_len);
        b.cur_len <- b.cur_len + len;
        b.cur_count <- b.cur_count + 1;
        b.payload <- b.payload + len;
        b.fed <- b.fed + 1)
      chunk
  else b.fed <- b.fed + Array.length chunk

let ceil_div a n = (a + n - 1) / n

let finish b =
  if needs_rows b && b.fed <> b.b_rows then
    invalid_arg
      (Printf.sprintf "Pfile.finish: fed %d of %d declared rows" b.fed
         b.b_rows);
  let n_rows = b.b_rows in
  if needs_rows b then begin
    flush b;
    let codec =
      if n_rows = 0 then b.b_codec
      else
        Codec.with_avg_row_width b.b_codec
          (float_of_int b.payload /. float_of_int n_rows)
    in
    {
      group = b.b_group;
      codec;
      block_size = b.b_block_size;
      storage =
        (if b.b_retain then Blocks (Array.of_list (List.rev b.blocks_rev))
         else Virtual);
      rowmap =
        Explicit
          {
            first = Array.of_list (List.rev b.first_rev);
            rows = Array.of_list (List.rev b.rows_rev);
          };
      block_count = b.n_blocks;
      row_count = n_rows;
      payload = b.payload;
    }
  end
  else begin
    (* Value-independent geometry: a fixed-width row stream packs exactly
       floor(block / width) rows per block — identical to the greedy
       packing of the encode path. *)
    let w = match b.b_fixed with Some w -> w | None -> assert false in
    if w > b.b_block_size then
      invalid_arg
        (Printf.sprintf
           "Pfile.build: row of %d bytes exceeds the %d-byte block" w
           b.b_block_size);
    let rpb = b.b_block_size / w in
    let blocks = if n_rows = 0 then 0 else ceil_div n_rows rpb in
    let payload = n_rows * w in
    let codec =
      if n_rows = 0 then b.b_codec
      else Codec.with_avg_row_width b.b_codec (float_of_int w)
    in
    {
      group = b.b_group;
      codec;
      block_size = b.b_block_size;
      storage = Virtual;
      rowmap = Fixed rpb;
      block_count = blocks;
      row_count = n_rows;
      payload;
    }
  end

let build ~block_size ~codec_kind table ~group rows =
  if Attr_set.is_empty group then invalid_arg "Pfile.build: empty group";
  let positions = Array.of_list (Attr_set.to_list group) in
  let attrs = Array.to_list (Array.map (Table.attribute table) positions) in
  (* Column-major projection for codec training. *)
  let column_major =
    Array.map
      (fun p ->
        Array.map
          (fun row ->
            if Array.length row <> Table.attribute_count table then
              invalid_arg "Pfile.build: row arity mismatch";
            row.(p))
          rows)
      positions
  in
  let codec = Codec.train codec_kind attrs column_major in
  let b =
    builder ~block_size ~codec ~retain:true ~rows:(Array.length rows) table
      ~group
  in
  feed b rows;
  finish b

let train table source groups kinds =
  let trainers =
    List.map2
      (fun group kind ->
        let positions = Attr_set.to_list group in
        ( kind,
          Array.of_list positions,
          Codec.Train.create kind (List.map (Table.attribute table) positions) ))
      groups kinds
  in
  (* Only dictionaries need the data: one pass feeds all of them. *)
  if List.mem Codec.Dictionary kinds then
    Vp_stream.Source.iter source (fun ~first_row:_ chunk ->
        List.iter
          (fun (kind, positions, tb) ->
            if kind = Codec.Dictionary then
              Array.iter (Codec.Train.feed tb ~positions) chunk)
          trainers);
  List.map (fun (_, _, tb) -> Codec.Train.finish tb) trainers

let build_stream ~block_size ~codec_kind ?(retain = true) table ~group source
    =
  if Attr_set.is_empty group then invalid_arg "Pfile.build: empty group";
  let codec = List.hd (train table source [ group ] [ codec_kind ]) in
  let b =
    builder ~block_size ~codec ~retain
      ~rows:(Vp_stream.Source.row_count source)
      table ~group
  in
  if needs_rows b then
    Vp_stream.Source.iter source (fun ~first_row:_ chunk -> feed b chunk);
  finish b

(* Folds over the blocks holding rows [first_row .. first_row+count-1]
   (clamped): [step acc block ~skip ~n] sees each block's bytes, the
   rows to pass over at its start and the rows of the range it holds. *)
let fold_range f ~first_row ~count ~init step =
  let blocks =
    match f.storage with
    | Blocks blocks -> blocks
    | Virtual -> invalid_arg "Pfile: virtual (accounting-only) file"
  in
  let first_row = max 0 first_row in
  let last_row = min (f.row_count - 1) (first_row + count - 1) in
  let acc = ref init in
  if count > 0 && first_row <= last_row then begin
    let bi = ref (block_of_row f first_row) in
    let row = ref first_row in
    while !row <= last_row do
      let block_first = first_row_of_block f !bi in
      let n = min (last_row + 1) (block_first + rows_in_block f !bi) - !row in
      acc := step !acc blocks.(!bi) ~skip:(!row - block_first) ~n;
      row := !row + n;
      incr bi
    done
  end;
  !acc

let read_rows f ~first_row ~count =
  (* Decode sequentially from the start of each block, keeping the rows
     that fall in the requested range. *)
  fold_range f ~first_row ~count ~init:[] (fun acc block ~skip ~n ->
      let pos = ref 0 and rows = ref acc in
      for k = 0 to skip + n - 1 do
        let row, next = Codec.decode_row f.codec block ~pos:!pos in
        if k >= skip then rows := row :: !rows;
        pos := next
      done;
      !rows)
  |> List.rev |> Array.of_list

let digest_rows f projection ~first_row ~count =
  fold_range f ~first_row ~count ~init:0 (fun acc block ~skip ~n ->
      acc + Codec.digest projection block ~pos:0 ~skip ~count:n)
