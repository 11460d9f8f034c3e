type t = { name : string; attributes : Attribute.t array; row_count : int }

let make ~name ~attributes ~row_count =
  if attributes = [] then invalid_arg "Table.make: empty attribute list";
  let n = List.length attributes in
  if n > Attr_set.max_attributes then
    invalid_arg
      (Printf.sprintf "Table.make: %d attributes exceed the supported %d" n
         Attr_set.max_attributes);
  if row_count < 0 then invalid_arg "Table.make: negative row count";
  let seen = Hashtbl.create n in
  List.iter
    (fun a ->
      let an = Attribute.name a in
      if Hashtbl.mem seen an then
        invalid_arg (Printf.sprintf "Table.make: duplicate attribute %S" an);
      Hashtbl.add seen an ())
    attributes;
  { name; attributes = Array.of_list attributes; row_count }

let name t = t.name

let attribute_count t = Array.length t.attributes

let attribute t i =
  if i < 0 || i >= Array.length t.attributes then
    invalid_arg (Printf.sprintf "Table.attribute: index %d out of bounds" i);
  t.attributes.(i)

let attributes t = Array.copy t.attributes

let row_count t = t.row_count

let with_row_count t row_count =
  if row_count < 0 then invalid_arg "Table.with_row_count: negative row count";
  { t with row_count }

let position t attr_name =
  let n = Array.length t.attributes in
  let rec go i =
    if i >= n then raise Not_found
    else if Attribute.name t.attributes.(i) = attr_name then i
    else go (i + 1)
  in
  go 0

let width t i = Attribute.width (attribute t i)

let row_size t =
  Array.fold_left (fun acc a -> acc + Attribute.width a) 0 t.attributes

let subset_size t set =
  let m = Attr_set.to_mask set in
  if m lsr Array.length t.attributes <> 0 then
    invalid_arg "Table.subset_size: attribute position out of bounds";
  (* One step per member, straight on the mask; the bound check above
     keeps every set bit inside the attribute array. *)
  let attrs = t.attributes in
  let rec go m acc =
    if m = 0 then acc
    else
      let i = Attr_set.lowest_bit_index m in
      go (m land (m - 1)) (acc + Attribute.width (Array.unsafe_get attrs i))
  in
  go m 0

let all_attributes t = Attr_set.full (Array.length t.attributes)

let attr_set_of_names t names =
  Attr_set.of_list (List.map (position t) names)

let names_of_attr_set t set =
  List.map (fun i -> Attribute.name (attribute t i)) (Attr_set.to_list set)

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>%s(%d rows):@ %a@]" t.name t.row_count
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Attribute.pp)
    (Array.to_seq t.attributes)

(* An attribute is [{"name", "type"}], plus ["width"] for the string
   types. *)
let codec =
  let open Vp_observe.Json.Codec in
  let kind = function
    | Attribute.Int32 -> ("int32", None)
    | Decimal -> ("decimal", None)
    | Date -> ("date", None)
    | Char w -> ("char", Some w)
    | Varchar w -> ("varchar", Some w)
  in
  let attribute =
    obj (fun name kind width ->
        let width () =
          match width with
          | Some w -> w
          | None -> raise (Error { path = [ "width" ]; reason = Missing "integer" })
        in
        let datatype =
          match kind with
          | "int32" -> Attribute.Int32
          | "decimal" -> Decimal
          | "date" -> Date
          | "char" -> Char (width ())
          | "varchar" -> Varchar (width ())
          | other -> fail "unknown attribute type %S" other
        in
        try Attribute.make name datatype
        with Invalid_argument msg -> fail "invalid table: %s" msg)
    |> field "name" string Attribute.name
    |> field "type" string (fun a -> fst (kind (Attribute.datatype a)))
    |> opt "width" int (fun a -> snd (kind (Attribute.datatype a)))
  in
  seal
    (obj (fun name row_count attributes ->
         try make ~name ~attributes ~row_count
         with Invalid_argument msg -> fail "invalid table: %s" msg)
    |> field "name" string name
    |> field "rows" int row_count
    |> field "attributes" (list (seal attribute)) (fun t -> Array.to_list t.attributes))
