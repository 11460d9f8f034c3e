open Vp_core

type kind = Plain | Dictionary | Varlen

let kind_name = function
  | Plain -> "plain"
  | Dictionary -> "dictionary"
  | Varlen -> "varlen"

type column = {
  attr : Attribute.t;
  dictionary : string array;
  code_width : int;
}

type t = { kind : kind; cols : column array; avg_row_width : float }

let kind c = c.kind

let columns c = Array.to_list c.cols

(* --- byte helpers --- *)

(* Little-endian unsigned code of 1-4 bytes (dictionary codes). *)
let set_code b pos v width =
  for k = 0 to width - 1 do
    Bytes.set b (pos + k) (Char.unsafe_chr ((v lsr (8 * k)) land 0xFF))
  done

let get_code b pos width =
  let v = ref 0 in
  for k = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (pos + k))
  done;
  !v

(* The wire format of an int column is the value's low 32 bits;
   reading sign-extends them. *)
let get_int32 b pos = Int32.to_int (Bytes.get_int32_le b pos)

let get_float b pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* A padded string ends at its first NUL. *)
let get_padded b pos width =
  let cut = ref 0 in
  while !cut < width && Bytes.get b (pos + !cut) <> '\000' do
    incr cut
  done;
  Bytes.sub_string b pos !cut

(* Zig-zag varint (values can be any int). *)
let zigzag v = (v lsl 1) lxor (v asr 62)

let set_varint b pos v =
  let rec go pos z =
    if z land lnot 0x7F = 0 then begin
      Bytes.set b pos (Char.unsafe_chr z);
      pos + 1
    end
    else begin
      Bytes.set b pos (Char.unsafe_chr (0x80 lor (z land 0x7F)));
      go (pos + 1) (z lsr 7)
    end
  in
  go pos (zigzag v)

let get_varint b pos =
  let rec go pos shift acc =
    let byte = Char.code (Bytes.get b pos) in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then (acc, pos + 1)
    else go (pos + 1) (shift + 7) acc
  in
  let z, pos' = go pos 0 0 in
  ((z lsr 1) lxor (-(z land 1)), pos')

let varint_len v =
  let rec go z n = if z land lnot 0x7F = 0 then n else go (z lsr 7) (n + 1) in
  go (zigzag v) 1

(* --- training --- *)

let bytes_for_cardinality n =
  if n <= 0x100 then 1 else if n <= 0x10000 then 2 else if n <= 0x1000000 then 3 else 4

(* Column metadata shared by the one-shot and streaming trainers;
   [dict c] yields the sorted distinct values of string column [c] (only
   consulted for Dictionary string columns). *)
let columns_of requested attrs ~dict =
  Array.mapi
    (fun c attr ->
      match (requested, Attribute.datatype attr) with
      | Dictionary, (Attribute.Char _ | Attribute.Varchar _) ->
          let dictionary = dict c in
          let dictionary = if dictionary = [||] then [| "" |] else dictionary in
          {
            attr;
            dictionary;
            code_width = bytes_for_cardinality (Array.length dictionary);
          }
      | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date) ->
          { attr; dictionary = [||]; code_width = 4 }
      | (Plain | Dictionary), Attribute.Decimal ->
          { attr; dictionary = [||]; code_width = 8 }
      | Plain, (Attribute.Char w | Attribute.Varchar w) ->
          { attr; dictionary = [||]; code_width = w }
      | Varlen, _ -> { attr; dictionary = [||]; code_width = 0 })
    attrs

let train requested attrs column_major =
  let attrs = Array.of_list attrs in
  if Array.length attrs <> Array.length column_major then
    invalid_arg "Codec.train: attribute/column count mismatch";
  Array.iteri
    (fun c col ->
      Array.iter
        (fun v ->
          if not (Value.matches (Attribute.datatype attrs.(c)) v) then
            invalid_arg
              (Printf.sprintf "Codec.train: value/type mismatch in column %s"
                 (Attribute.name attrs.(c))))
        col)
    column_major;
  let dict c =
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun v ->
        match v with
        | Value.Str s -> if not (Hashtbl.mem seen s) then Hashtbl.add seen s ()
        | Value.Int _ | Value.Num _ -> ())
      column_major.(c);
    Hashtbl.fold (fun s () acc -> s :: acc) seen []
    |> List.sort String.compare |> Array.of_list
  in
  { kind = requested; cols = columns_of requested attrs ~dict; avg_row_width = 0.0 }

(* Streaming trainer: one pass over full-table chunks collects exactly
   what [train] collects (distinct strings of dictionary columns), so
   [finish] yields a codec identical to training on the materialized
   column-major projection — dictionaries are sorted, hence insertion-
   order independent (property-tested against [train]). *)
module Train = struct
  type builder = {
    requested : kind;
    t_attrs : Attribute.t array;
    seen : (string, unit) Hashtbl.t array;  (** one per group column *)
  }

  let create requested attrs =
    let t_attrs = Array.of_list attrs in
    {
      requested;
      t_attrs;
      seen = Array.map (fun _ -> Hashtbl.create 64) t_attrs;
    }

  let feed b ~positions row =
    if Array.length positions <> Array.length b.t_attrs then
      invalid_arg "Codec.Train.feed: arity mismatch";
    Array.iteri
      (fun c p ->
        let v = row.(p) in
        if not (Value.matches (Attribute.datatype b.t_attrs.(c)) v) then
          invalid_arg
            (Printf.sprintf "Codec.train: value/type mismatch in column %s"
               (Attribute.name b.t_attrs.(c)));
        match (b.requested, v) with
        | Dictionary, Value.Str s ->
            if not (Hashtbl.mem b.seen.(c) s) then Hashtbl.add b.seen.(c) s ()
        | _, (Value.Int _ | Value.Num _ | Value.Str _) -> ())
      positions

  let finish b =
    let dict c =
      Hashtbl.fold (fun s () acc -> s :: acc) b.seen.(c) []
      |> List.sort String.compare |> Array.of_list
    in
    {
      kind = b.requested;
      cols = columns_of b.requested b.t_attrs ~dict;
      avg_row_width = 0.0;
    }
end

let dict_code col s =
  (* Binary search in the sorted dictionary. *)
  let lo = ref 0 and hi = ref (Array.length col.dictionary - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare col.dictionary.(mid) s in
    if c = 0 then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then
    invalid_arg (Printf.sprintf "Codec: value %S not in dictionary" s);
  !found

let mismatch () = invalid_arg "Codec.encode: value/type mismatch"

(* The one write-side encoder: group column [c] is [row.(positions.(c))],
   written at [pos]; returns the position after the row. *)
let encode_into codec ~positions row b ~pos =
  let pos = ref pos in
  for c = 0 to Array.length codec.cols - 1 do
    let col = codec.cols.(c) in
    pos :=
      match (codec.kind, Attribute.datatype col.attr, row.(positions.(c))) with
      | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date), Value.Int i
        ->
          Bytes.set_int32_le b !pos (Int32.of_int i);
          !pos + 4
      | (Plain | Dictionary | Varlen), Attribute.Decimal, Value.Num f ->
          Bytes.set_int64_le b !pos (Int64.bits_of_float f);
          !pos + 8
      | Plain, (Attribute.Char w | Attribute.Varchar w), Value.Str s ->
          let len = min (String.length s) w in
          Bytes.blit_string s 0 b !pos len;
          Bytes.fill b (!pos + len) (w - len) '\000';
          !pos + w
      | Dictionary, (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
          set_code b !pos (dict_code col s) col.code_width;
          !pos + col.code_width
      | Varlen, (Attribute.Int32 | Attribute.Date), Value.Int i ->
          set_varint b !pos i
      | Varlen, (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
          let p = set_varint b !pos (String.length s) in
          Bytes.blit_string s 0 b p (String.length s);
          p + String.length s
      | _, _, (Value.Int _ | Value.Num _ | Value.Str _) -> mismatch ()
  done;
  !pos

(* A fixed-stride row's width is the sum of its column widths. *)
let fixed_row_width codec =
  match codec.kind with
  | Varlen -> None
  | Plain | Dictionary ->
      Some (Array.fold_left (fun acc col -> acc + col.code_width) 0 codec.cols)

(* A Varlen row's width is summed per value (validating types). *)
let encoded_width codec ~positions row =
  match fixed_row_width codec with
  | Some w -> w
  | None ->
      let total = ref 0 in
      for c = 0 to Array.length codec.cols - 1 do
        total :=
          !total
          +
          match
            (Attribute.datatype codec.cols.(c).attr, row.(positions.(c)))
          with
          | (Attribute.Int32 | Attribute.Date), Value.Int i -> varint_len i
          | Attribute.Decimal, Value.Num _ -> 8
          | (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
              varint_len (String.length s) + String.length s
          | _, (Value.Int _ | Value.Num _ | Value.Str _) -> mismatch ()
      done;
      !total

let encode_row codec row =
  if Array.length row <> Array.length codec.cols then
    invalid_arg "Codec.encode_row: arity mismatch";
  let positions = Array.init (Array.length row) Fun.id in
  let b = Bytes.create (encoded_width codec ~positions row) in
  ignore (encode_into codec ~positions row b ~pos:0);
  b

let decode_row codec b ~pos =
  let n = Array.length codec.cols in
  let out = Array.make n (Value.Int 0) in
  let pos = ref pos in
  for c = 0 to n - 1 do
    let col = codec.cols.(c) in
    match (codec.kind, Attribute.datatype col.attr) with
    | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date) ->
        out.(c) <- Value.Int (get_int32 b !pos);
        pos := !pos + 4
    | (Plain | Dictionary | Varlen), Attribute.Decimal ->
        out.(c) <- Value.Num (get_float b !pos);
        pos := !pos + 8
    | Plain, (Attribute.Char w | Attribute.Varchar w) ->
        out.(c) <- Value.Str (get_padded b !pos w);
        pos := !pos + w
    | Dictionary, (Attribute.Char _ | Attribute.Varchar _) ->
        out.(c) <- Value.Str col.dictionary.(get_code b !pos col.code_width);
        pos := !pos + col.code_width
    | Varlen, (Attribute.Int32 | Attribute.Date) ->
        let v, p = get_varint b !pos in
        out.(c) <- Value.Int v;
        pos := p
    | Varlen, (Attribute.Char _ | Attribute.Varchar _) ->
        let len, p = get_varint b !pos in
        out.(c) <- Value.Str (Bytes.sub_string b p len);
        pos := p + len
  done;
  (out, !pos)

(* --- projected digests ---

   The executor's checksum is a commutative sum of per-value hashes over
   the projected columns. A projection compiles, once per scan, where
   each projected column sits in a fixed-stride row and, for dictionary
   columns, the hash of every dictionary entry; digesting then reads the
   projected values straight from the block bytes, column by column,
   without building rows or boxing values. *)

let int_hash (i : int) = Hashtbl.hash i

let num_hash f = Hashtbl.hash (Float.round (f *. 100.0))

let str_hash (s : string) = Hashtbl.hash s

type projection = {
  p_codec : t;
  p_stride : int;
  p_cols : int array;  (** projected group columns *)
  p_offsets : int array;  (** byte offset in a fixed-stride row *)
  p_hashes : int array array;  (** dictionary entry hashes, per column *)
}

let project codec cols =
  let offsets = Array.make (Array.length codec.cols) 0 in
  for c = 1 to Array.length codec.cols - 1 do
    offsets.(c) <- offsets.(c - 1) + codec.cols.(c - 1).code_width
  done;
  {
    p_codec = codec;
    p_stride = Option.value (fixed_row_width codec) ~default:0;
    p_cols = cols;
    p_offsets = Array.map (fun c -> offsets.(c)) cols;
    p_hashes =
      Array.map
        (fun c ->
          match (codec.kind, Attribute.datatype codec.cols.(c).attr) with
          | Dictionary, (Attribute.Char _ | Attribute.Varchar _) ->
              Array.map str_hash codec.cols.(c).dictionary
          | _ -> [||])
        cols;
  }

let value_hash = function
  | Value.Int i -> int_hash i
  | Value.Num f -> num_hash f
  | Value.Str s -> str_hash s

let digest p b ~pos ~skip ~count =
  let codec = p.p_codec in
  let acc = ref 0 in
  (match codec.kind with
  | Varlen ->
      let pos = ref pos in
      for k = 0 to skip + count - 1 do
        let row, next = decode_row codec b ~pos:!pos in
        if k >= skip then
          Array.iter (fun c -> acc := !acc + value_hash row.(c)) p.p_cols;
        pos := next
      done
  | Plain | Dictionary ->
      let stride = p.p_stride in
      Array.iteri
        (fun i c ->
          let col = codec.cols.(c) in
          let offset = pos + p.p_offsets.(i) in
          (* column [c] of row [k] sits at [pos + k*stride + offset c] *)
          let each hash =
            for k = skip to skip + count - 1 do
              acc := !acc + hash (offset + (k * stride))
            done
          in
          match (codec.kind, Attribute.datatype col.attr) with
          | _, (Attribute.Int32 | Attribute.Date) ->
              each (fun at -> int_hash (get_int32 b at))
          | _, Attribute.Decimal -> each (fun at -> num_hash (get_float b at))
          | Plain, (Attribute.Char w | Attribute.Varchar w) ->
              each (fun at -> str_hash (get_padded b at w))
          | Dictionary, (Attribute.Char _ | Attribute.Varchar _) ->
              let hashes = p.p_hashes.(i) and width = col.code_width in
              each (fun at -> hashes.(get_code b at width))
          | Varlen, _ -> assert false)
        p.p_cols);
  !acc

let avg_row_width codec =
  if codec.avg_row_width > 0.0 then codec.avg_row_width
  else match fixed_row_width codec with Some w -> float_of_int w | None -> 0.0

let with_avg_row_width codec w = { codec with avg_row_width = w }

(* Calibrated against Table 7's DBMS-X behaviour: decoding a value inside a
   multi-column group costs little extra while rows keep a fixed stride
   (plain, dictionary), but under variable-length encoding the executor
   must walk the segment value by value to reconstruct a tuple, which
   dominates — the reason the paper's column layout beats HillClimb's
   column groups under LZO-style compression. *)
let decode_ns_per_value kind ~in_group =
  match (kind, in_group) with
  | Plain, false -> 1.0
  | Plain, true -> 2.0
  | Dictionary, false -> 2.0
  | Dictionary, true -> 12.0
  | Varlen, false -> 4.0
  | Varlen, true -> 80.0
