type t = { table : Table.t; queries : Query.t array }

let make table queries =
  let n = Table.attribute_count table in
  let valid = Attr_set.full n in
  List.iter
    (fun q ->
      if not (Attr_set.subset (Query.references q) valid) then
        invalid_arg
          (Printf.sprintf
             "Workload.make: query %s references attributes outside table %s"
             (Query.name q) (Table.name table)))
    queries;
  { table; queries = Array.of_list queries }

let total_weight w =
  Array.fold_left (fun acc q -> acc +. Query.weight q) 0.0 w.queries

let table w = w.table

let queries w = Array.copy w.queries

let query_count w = Array.length w.queries

let query w i = w.queries.(i)

let prefix w k =
  let k = max 0 (min k (Array.length w.queries)) in
  { w with queries = Array.sub w.queries 0 k }

let referenced_attributes w =
  Array.fold_left
    (fun acc q -> Attr_set.union acc (Query.references q))
    Attr_set.empty w.queries

let unreferenced_attributes w =
  Attr_set.diff (Table.all_attributes w.table) (referenced_attributes w)

let co_access_count w i j =
  Array.fold_left
    (fun acc q ->
      if Query.references_attr q i && Query.references_attr q j then
        acc +. Query.weight q
      else acc)
    0.0 w.queries

let access_signature w i =
  let nq = Array.length w.queries in
  if nq > Attr_set.max_attributes then
    invalid_arg "Workload.access_signature: too many queries";
  let sig_ = ref Attr_set.empty in
  for qi = 0 to nq - 1 do
    if Query.references_attr w.queries.(qi) i then sig_ := Attr_set.add qi !sig_
  done;
  !sig_

let primary_partitions w =
  let n = Table.attribute_count w.table in
  (* Group attributes by their access signature, preserving first-seen
     order so groups come out ordered by minimum attribute position. *)
  let groups : (Attr_set.t, Attr_set.t ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  for i = 0 to n - 1 do
    let s = access_signature w i in
    match Hashtbl.find_opt groups s with
    | Some members -> members := Attr_set.add i !members
    | None ->
        let members = ref (Attr_set.singleton i) in
        Hashtbl.add groups s members;
        order := members :: !order
  done;
  List.rev_map (fun members -> !members) !order

let scale_weights w factor =
  if factor <= 0.0 then invalid_arg "Workload.scale_weights: factor <= 0";
  {
    w with
    queries =
      Array.map
        (fun q ->
          Query.make ~weight:(Query.weight q *. factor) ~name:(Query.name q)
            ~references:(Query.references q) ())
        w.queries;
  }

let with_table w table =
  if Table.attribute_count table <> Table.attribute_count w.table then
    invalid_arg "Workload.with_table: attribute count mismatch";
  { w with table }

let pp ppf w =
  Format.fprintf ppf "@[<v 2>workload on %s:@ %a@]" (Table.name w.table)
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
       Query.pp)
    (Array.to_seq w.queries)
